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

:meth:`Plan.expand` picks the first of these rules that applies; the budget
optimizer in :mod:`owpdb.exactdp` is an :class:`Evaluator` over budget
vectors and walks the same plan by the same code.  If no rule applies
the query is refused with :class:`UnsafeQuery`; the ground evaluator is the
fallback and the correctness oracle.  It joins the stored rows into the
query's lineage and compiles that by Shannon expansion, the ground analogue
of the rules above, in memory bounded by a node cap, not by the worlds.

:class:`Plan` holds these choices: every rule is derived once per
sub-union, not once per domain constant, because a separator binds every
constant its union does not mention to the placeholder of one fresh child,
evaluated for all of them set at a time where its shape allows
(:meth:`Evaluator._evaluate_many`): as columns of values and
log-complements, one memo entry per batch, each atom leaf looked up per
constant in its finished table (:meth:`ProbView.finished`), in the bits of
the node-by-node walk.  The call's evaluators, one per database it reads,
share that plan; each keeps its own memo table keyed by plan node and the
constants bound to the node's placeholders.  An evaluator's value is one
``Prob`` per view it reads: the database alone for a closed-world answer,
the database and its full completion for both ends of an open-world
interval in one walk.  Greedy screens one representative per group of
tuples that read the same screen keys by one reverse pass over a round's
memo (:meth:`Evaluator.gradient`).  "Safe" means the whole plan builds; a
plan too wide to build is :class:`CapExceeded`, not unsafe, refused when
the too-wide node is expanded.  Plans depend on the query alone, so all
calls share one bounded table of plan nodes, each published whole; memo
tables are per call, and a database changes only by caching a relation's
fold, map or finished table, built locally and published whole, so
concurrent queries against one database are safe.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
import weakref
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import probability
from .database import ProbView, Schema
from .errors import CapExceeded, UnsafeQuery
from .probability import CERTAIN, IMPOSSIBLE, Prob
from .query import (
    _drop_entailing,
    Atom,
    ConjunctiveQuery,
    Constant,
    Placeholder,
    QueryProfile,
    UCQ,
    Variable,
    find_separator,
    independence_groups,
    is_hierarchical,
    is_inversion_free,
    has_self_join,
    minimize,
    parse_ucq,
    substitute_separator,
    term_key,
    ucq_implies,
    variable_components,
)

# Width guards for the syntactic decompositions.
CNF_COMBINATION_CAP = 512
INCLUSION_EXCLUSION_CAP = 12

DEFAULT_WORLD_CAP = 24
# Clauses of a ground lineage, summed over its compiled nodes (the root
# holds them all): memory stays bounded whatever the world cap.
LINEAGE_CAP = 10**6
# Entries of a process-wide plan table past which the next Plan() starts an
# empty one; a node is never evicted alone, since its parents read it.
PLAN_TABLE_NODES = 4096
# Parsed queries whose inversion-free flag analyze_query keeps.
INVERSION_FREE_CACHE = 1024


def conjunction_parts(q: UCQ) -> list[UCQ] | None:
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
        if n_combos > CNF_COMBINATION_CAP:
            raise CapExceeded(
                f"conjunction rewriting needs {n_combos}+ combinations (cap {CNF_COMBINATION_CAP})"
            )
    seen: set[UCQ] = set()
    parts: list[UCQ] = []
    for combo in itertools.product(*per_disjunct):
        u = minimize(UCQ([ConjunctiveQuery(atoms) for atoms in combo]))
        if u not in seen:
            seen.add(u)
            parts.append(u)
    parts.sort(key=_part_key)
    # a part another part entails is the weaker conjunct and contributes nothing
    return _drop_entailing(parts, lambda u, v: ucq_implies(v, u))


def _part_key(u: UCQ) -> tuple:
    return tuple(d.key() for d in u.disjuncts)


class _Node:
    """A plan node: a minimized union, possibly over placeholders, and its
    rule and the nodes that rule reads, filled in by :meth:`Plan.expand` on
    first use with its flag ``batches`` (is it evaluated set at a time over
    a separator's constants?) and an atom leaf's templates (:func:`_leaf`)."""

    __slots__ = ("query", "placeholders", "rule", "arg", "children", "fresh", "leaf", "templates", "batches")

    def __init__(self, query: UCQ):
        self.query = query
        self.placeholders = tuple(sorted(c.name for c in query.constants() if type(c) is Placeholder))
        self.rule = self.arg = self.children = self.fresh = self.leaf = self.templates = self.batches = None

    def key(self, env: Mapping[str, Constant]) -> object:
        """Memo key of this node under ``env``: the node and the constants
        bound to its placeholders."""
        return (self, tuple(env[p].name for p in self.placeholders)) if self.placeholders else self

    def batch_key(self, env: Mapping[str, Constant], name: str, names: tuple[str, ...]) -> tuple:
        """Memo key of this node's batch over the constants ``names``: the
        node, the bindings of its placeholders but ``name``, and ``names``."""
        return self, tuple(None if p == name else env[p].name for p in self.placeholders), names

    def bound(self, env: Mapping[str, Constant]) -> UCQ:
        """The node's union with its placeholders replaced by their bindings."""
        if not self.placeholders:
            return self.query
        return UCQ([ConjunctiveQuery([_bind_atom(a, env) for a in d.atoms]) for d in self.query.disjuncts])


# Per force_inclusion_exclusion value, the plan nodes by union, the terms by group and
# the parsed texts (Plan.parse); and the lock new nodes and terms are published under.
_TABLES: dict[bool, tuple[dict[UCQ, _Node], dict[tuple[_Node, ...], list], dict[tuple[str, int], tuple]]] = {}
_PUBLISH = threading.Lock()


class Plan:
    """The lifted plan of a call's queries, shared by all the evaluators
    the call makes, whatever database each reads.  Nodes are hash-consed by
    minimized union and expanded on first use, so rules run, and refuse, in
    the order an evaluator reaches them; :meth:`build` walks the children
    :meth:`expand` records.  A separator has a child per constant its union
    mentions and one fresh child, over a placeholder, for all the others:
    they are interchangeable, so one child stands for each of them.
    ``force_inclusion_exclusion`` makes one group of all parts.

    Nodes, terms and the texts :meth:`parse` keeps live in one process-wide
    table per ``force_inclusion_exclusion``, so no call derives a rule an
    earlier one derived; a node no rule applies to stays unexpanded and
    refuses in every call.  New nodes, expansions and terms are built locally and
    published whole under one lock.  Past :data:`PLAN_TABLE_NODES`
    entries, the next plan starts an empty table."""

    def __init__(self, *, force_inclusion_exclusion: bool = False):
        self.force_ie = force_inclusion_exclusion
        with _PUBLISH:
            table = _TABLES.get(force_inclusion_exclusion)
            if table is None or len(table[0]) + len(table[2]) > PLAN_TABLE_NODES:
                table = _TABLES[force_inclusion_exclusion] = {}, {}, {}
        self._nodes, self._terms, self._texts = table

    def node(self, q: UCQ) -> _Node:
        node = self._nodes.get(q)
        if node is None:
            canon = minimize(q)
            with _PUBLISH:
                node = self._nodes.get(canon) or _Node(canon)
                self._nodes[canon] = self._nodes[q] = node
        return node

    def parse(self, text: str, schema: Schema) -> UCQ:
        """``parse_ucq(text, schema)``, kept until ``schema`` dies, published whole; a failed parse is not kept."""
        key, texts = (text, id(schema)), self._texts
        if (kept := texts.get(key)) is None:
            kept = texts[key] = weakref.ref(schema, lambda _: texts.pop(key, None)), parse_ucq(text, schema)
        return kept[1]

    def expand(self, node: _Node) -> tuple[str | None, object]:
        """The first lifted rule that applies to ``node``'s union, derived
        once and recorded with the nodes it reads, ``node.children``:

        * ``("atom", atom)`` for a single one-atom disjunct;
        * ``("and", groups)`` for a conjunction of sub-unions, in mutually
          independent groups of nodes; its children are each group's node
          or terms (:meth:`terms`), so a group too wide refuses here;
        * ``("or", nodes)`` for a union of mutually independent sub-unions;
        * ``("sep", (separator, mentioned constants in term order, their
          children, predicates, fresh placeholder name))``; the child over
          that placeholder, for the other constants, is ``node.fresh``;
        * ``(None, None)`` when no rule applies; the node stays unexpanded.
        """
        if node.rule is not None:
            return node.rule, node.arg
        q = node.query
        ds = q.disjuncts
        fresh = leaf = templates = None
        if len(ds) == 1 and len(ds[0].atoms) == 1:
            rule, arg, children = "atom", ds[0].atoms[0], []
            leaf, templates = _leaf(arg, node.placeholders)
        elif (parts := conjunction_parts(q)) is not None:
            groups = [parts] if self.force_ie else independence_groups(parts)
            rule, arg = "and", [tuple(map(self.node, g)) for g in groups]
            children = [n for g in arg for n in (g if len(g) == 1 else [t for _, t in self.terms(g)])]
        elif len(ds) > 1 and len(groups := independence_groups([UCQ([d]) for d in ds])) > 1:
            rule = "or"
            arg = children = [self.node(UCQ([d for u in g for d in u.disjuncts])) for g in groups]
        elif (sep := find_separator([d.atoms for d in ds])) is not None:
            consts = sorted(q.constants(), key=term_key)
            name = next(str(i) for i in itertools.count() if str(i) not in node.placeholders)
            mentioned = [self.node(substitute_separator(q, sep, c)) for c in consts]
            fresh = self.node(substitute_separator(q, sep, Placeholder(name)))
            rule, arg, children = "sep", (sep, consts, mentioned, q.predicates(), name), mentioned + [fresh]
        else:
            return None, None
        with _PUBLISH:
            if node.rule is None:  # the rule last: a reader that sees it sees the rest
                node.arg, node.children, node.fresh, node.leaf, node.templates = arg, children, fresh, leaf, templates
                node.batches = rule == "atom" and not leaf[2] or rule == "and" and all(len(g) == 1 for g in arg)
                node.rule = rule
        return node.rule, node.arg

    def separator(self, node: _Node, env: Mapping[str, Constant]) -> dict[str, _Node]:
        """The separator ``node``'s mentioned children under ``env``: the
        constant names its union mentions, bound, each mapped to its child;
        every other constant's child is ``node.fresh``."""
        return {(env[c.name] if type(c) is Placeholder else c).name: n for c, n in zip(node.arg[1], node.arg[2])}

    def terms(self, group: tuple[_Node, ...]) -> list[tuple[int, _Node]]:
        """Signed inclusion-exclusion terms of a conjunction of sub-unions."""
        cached = self._terms.get(group)
        if cached is None:
            m = len(group)
            if m > INCLUSION_EXCLUSION_CAP:
                raise CapExceeded(f"inclusion-exclusion over {m} conjuncts (cap {INCLUSION_EXCLUSION_CAP})")
            terms = [
                (1 if size % 2 == 1 else -1, self.node(UCQ([d for n in subset for d in n.query.disjuncts])))
                for size in range(1, m + 1)
                for subset in itertools.combinations(group, size)
            ]
            with _PUBLISH:
                cached = self._terms.setdefault(group, terms)
        return cached

    def build(self, q: UCQ) -> Plan:
        """Expand the whole plan of ``q``, every separator's fresh child
        included, and return it.  Raises :class:`UnsafeQuery` or, when too
        wide, :class:`CapExceeded`."""
        todo, seen = [self.node(q)], set()
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            if self.expand(node)[0] is None:
                raise UnsafeQuery(f"{q} admits no lifted evaluation")
            todo += reversed(node.children)
        return self


def _bind_atom(atom: Atom, env: Mapping[str, Constant]) -> Atom:
    return Atom(atom.predicate, tuple(env[t.name] if type(t) is Placeholder else t for t in atom.args))


def _leaf(atom: Atom, placeholders: tuple[str, ...]) -> tuple[tuple, dict]:
    """An atom rule's leaf, derived once per node: predicate, (position,
    name, is placeholder) slots of its bound positions, its terms when a
    variable repeats (else none) and its number of distinct variables; and
    its templates: per placeholder a batch binds (``None``: none), the
    slots left bound and the positions of the holes."""
    slots = tuple((i, t.name, type(t) is Placeholder) for i, t in enumerate(atom.args) if type(t) is not Variable)
    names = [t.name for t in atom.args if type(t) is Variable]
    templates = {name: (tuple(s for s in slots if not (s[2] and s[1] == name)),
                        tuple(i for i, t, ph in slots if ph and t == name)) for name in (None, *placeholders)}
    return (atom.predicate, slots, atom.args if len(set(names)) < len(names) else (), len(set(names))), templates


class Evaluator:
    """One lifted evaluation context: a database, a plan (its own unless one
    is passed), and a memo keyed by plan node and the constants bound to
    the node's placeholders, or, for a batch, by the node, the bindings of
    its other placeholders and the batched constants.  A value is a tuple
    of one ``Prob`` per view: ``db``, which supplies the stored rows, the
    schema and every separator's partition, then each of ``more_views``
    (an open-world interval reads the database and its full completion).
    The walk goes through hooks; the node-by-node arithmetic (``conj``,
    ``disj``, ``signed_sum``) maps :mod:`owpdb.probability`'s over the
    views.  The one subclass, the exact DP's
    :class:`owpdb.exactdp._BudgetSolver`, walks budget vectors: it replaces
    ``conj`` and ``disj`` and the rules' hooks (:meth:`_lift`,
    :meth:`_leaf_value`, :meth:`_group`, :meth:`_separator_product`).
    """

    def __init__(self, db: ProbView, *more_views: ProbView, plan: Plan | None = None):
        self.db = db
        self.views: tuple[ProbView, ...] = (db, *more_views)
        self.plan = plan if plan is not None else Plan()
        self._memo: dict[object, object] = {}
        self.max_clamp = 0.0

    def conj(self, items: Iterable[tuple[Prob, ...]]) -> tuple[Prob, ...]:
        return tuple(map(probability.conj, zip(*items)))

    def disj(self, items: Iterable[tuple[Prob, ...]]) -> tuple[Prob, ...]:
        return tuple(map(probability.disj, zip(*items)))

    def signed_sum(self, terms: list[tuple[int, tuple[Prob, ...]]]) -> tuple[tuple[Prob, ...], float]:
        ends = [probability.signed_sum([(s, p[i]) for s, p in terms]) for i in range(len(self.views))]
        return tuple(p for p, _ in ends), max(clamp for _, clamp in ends)

    # -- public entry ------------------------------------------------------

    def probability(self, q: UCQ) -> Prob | tuple[Prob, ...]:
        """P(``q``): a ``Prob`` for one view, else one per view."""
        ends = self.evaluate(self.plan.node(q), {})
        return ends[0] if len(ends) == 1 else ends

    def evaluate(self, node: _Node, env: Mapping[str, Constant]) -> tuple[Prob, ...]:
        """P(``node``) per view, with its placeholders bound by ``env``."""
        key = node.key(env)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._lift(node, env)
            self._memo[key] = cached
        return cached

    def gradient(self, q: UCQ, pred: str) -> Callable[[tuple[str, ...]], float]:
        """dP(``q``)/dp for the absent ``pred`` atoms, on a view where those
        are impossible, as a map from an atom's argument names to the summed
        weights of the leaf patterns it instantiates.  One reverse pass over
        the memo that evaluating ``q`` filled, an entry at a time, evaluates
        nothing new; a batch's adjoint is a column per tag (``None`` where a
        constant takes none).  An atom block weighs each absent instance by
        its complement, a complement product gives each part the others'
        complements (none when it is certain), independent groups the others'
        values, inclusion-exclusion terms their signs; a batched rest its
        representative's, tagged with the swaps to each member, over which a
        leaf expands.  A (node, constant) held twice sums at its first entry
        (:meth:`_shared`).  The screen's ``reads``, sorted, are the positions
        its tables key on and its repeated variables compare."""
        memo, todo, leaves = self._memo, {}, {}
        owner, members = self._shared()

        def push(node: _Node, env: Mapping[str, Constant], name: str | None, consts, cols: dict) -> None:
            # a batch no other entry shares takes the column, any other node a float per constant
            key = node.batch_key(env, name, tuple(c.name for c in consts)) if name and node.batches else None
            if key in memo and key not in members:
                adj = todo.setdefault(key, (env, name, consts, {}))[3]
                for tag, col in cols.items():
                    old = adj.setdefault(tag, col)
                    if old is not col:
                        adj[tag] = [a if b is None else b if a is None else a + b for a, b in zip(old, col)]
                return
            for j, c in enumerate(consts or (None,)):
                e = {**env, name: c} if name else env
                adj = todo.setdefault(node.key(e), (e, None, None, {}))[3]
                for tag, col in cols.items():
                    if col[j] is not None:
                        adj[tag] = adj.get(tag, 0.0) + col[j]

        push(self.plan.node(q), {}, None, None, {(): [1.0]})
        for key in reversed(memo):
            node = key[0] if type(key) is tuple else key
            if key in members:  # the constants this batch holds first, from their own keys
                cols = {}
                for j, member in enumerate(members[key]):
                    if owner[member] is key and member in todo:
                        env, _, _, adj = todo.pop(member)
                        for tag, a in adj.items():
                            cols.setdefault(tag, [None] * len(key[2]))[j] = a
                name, consts = node.placeholders[key[1].index(None)], list(map(Constant, key[2]))
            elif owner.get(key, key) is key and key in todo:
                env, name, consts, adj = todo.pop(key)
                cols = adj if name else {tag: [a] for tag, a in adj.items()}
            else:
                cols = {}
            if not cols:
                continue
            rule, arg = node.rule, node.arg
            if rule == "atom" and node.leaf[0] == pred:
                shape = tuple(-1 if type(t) is not Variable else arg.args.index(t) for t in arg.args)
                fixed = tuple(None if ph and t == name else env[t].name if ph else t for _, t, ph in node.leaf[1])
                keys = zip(*(key[2] if k is None else itertools.repeat(k) for k in fixed)) if name else [fixed]
                logcs = memo[key][0][1] if name else [memo[key][0].logc]
                ws = map(math.exp, logcs) if node.leaf[3] else itertools.repeat(1.0)
                table = leaves.setdefault(shape, {})
                for k0, w0, adj in reversed(list(zip(keys, ws, zip(*cols.values())))):
                    for tag, a in zip(cols, adj):
                        ks = [k0] if a is not None else []
                        for rep, ms in reversed(tag):
                            ks = [tuple(m if t == rep else rep if t == m else t for t in k) for k in ks for m in ms]
                        for k in ks:
                            table[k] = table.get(k, 0.0) + a * w0
            elif rule == "and":
                rows = list(zip(*(self._evaluate_many(g[0], env, name, consts)[0][0] if name else
                                  [self._group(g, env)[0].value] for g in arg)))
                for i, g in enumerate(arg):
                    other = [math.prod(row[:i] + row[i + 1:]) for row in rows]  # the other groups' product
                    for sign, n in ((1, g[0]),) if len(g) == 1 else self.plan.terms(g):
                        push(n, env, name, consts, {t: [None if a is None else sign * a * o for a, o in zip(col, other)]
                                                    for t, col in cols.items()})
            elif rule in ("or", "sep") and (logc := memo[key][0].logc) > -math.inf:  # at 1 no tuple can raise P
                slots, rest = ([(None, u) for u in arg], ()) if rule == "or" else self._partition(node, env)
                for child in [child for _, child in slots if child is not None]:
                    o = math.exp(logc - self.evaluate(child, env)[0].logc)
                    push(child, env, None, None, {tag: [col[0] * o] for tag, col in cols.items()})
                if fresh := [c for c, child in slots if child is None]:
                    others = [math.exp(logc - lc) for lc in self._evaluate_many(node.fresh, env, arg[4], fresh)[0][1]]
                    swaps, out = ((rest[0].name, tuple(c.name for c in rest)),) if len(rest) > 1 else (), {}
                    for tag, col in cols.items():
                        out[tag] = [col[0] * o for o in others]
                        if swaps:  # the batched rest's representative, last, carries its swaps
                            out[tag + swaps], out[tag][-1] = [None] * (len(others) - 1) + out[tag][-1:], None
                    push(node.fresh, env, arg[4], fresh, out)

        index = [([i for i, s in enumerate(shape) if s < 0], [(i, s) for i, s in enumerate(shape) if 0 <= s != i], table)
                 for shape, table in leaves.items()]

        def screen(args: tuple[str, ...]) -> float:
            return sum(table.get(tuple(args[i] for i in consts), 0.0)
                       for consts, ties, table in index if all(args[i] == args[j] for i, j in ties))

        screen.reads = tuple(sorted({i for consts, ties, _ in index for i in itertools.chain(consts, *ties)}))
        return screen

    def _shared(self) -> tuple[dict, dict]:
        """The (node, constant) keys several memo entries hold, each mapped to
        the first, and the batches among those entries, each mapped to its
        keys: inclusion-exclusion terms batch a node under two partitions,
        and an evaluate can repeat a batch's constant."""
        holders, owner, members = {}, {}, {}
        for key in self._memo:
            if type(key) is tuple and len(key) == 3:
                holders.setdefault(key[:2], []).append(key)
        for key in self._memo if holders else ():
            for at in range(len(key[1]) if type(key) is tuple and len(key) == 2 else 0):
                holders.get((key[0], key[1][:at] + (None,) + key[1][at + 1:]), []).append(key)
        shared = {key for keys in holders.values() if len(keys) > 1 for key in keys}
        for key in [key for key in self._memo if key in shared]:  # in memo order: the first holder wins
            if len(key) == 3:
                node, names, consts = key
                at = names.index(None)
                members[key] = [(node, names[:at] + (c,) + names[at + 1:]) for c in consts]
            for member in members.get(key, [key]):
                owner.setdefault(member, key)
        return owner, members

    # -- recursion ---------------------------------------------------------

    def _lift(self, node: _Node, env: Mapping[str, Constant]) -> tuple[Prob, ...]:
        rule, arg = self.plan.expand(node)
        if rule == "atom":
            return self._leaf_value(node, env)
        if rule == "and":
            if len(arg) == 1:
                return self._group(arg[0], env)
            return self.conj(self._group(g, env) for g in arg)
        if rule == "or":
            return self.disj(self.evaluate(u, env) for u in arg)
        if rule == "sep":
            return self._separator_product(node, env)
        raise UnsafeQuery(f"no decomposition applies to {node.bound(env)}")

    def _group(self, group: tuple[_Node, ...], env: Mapping[str, Constant]) -> tuple[Prob, ...]:
        if len(group) == 1:
            return self.evaluate(group[0], env)
        result, clamp = self.signed_sum([(s, self.evaluate(n, env)) for s, n in self.plan.terms(group)])
        self.max_clamp = max(self.max_clamp, clamp)
        return result

    def _leaf_value(self, node: _Node, env: Mapping[str, Constant]) -> tuple[Prob, ...]:
        """P of the atom leaf ``node`` under ``env`` per view (:meth:`_leaf_column`)."""
        return tuple(Prob(values[0], logcs[0]) for values, logcs in self._leaf_column(node, env))

    def _partition(self, node: _Node, env: Mapping[str, Constant]) -> tuple[list, list[Constant]]:
        """The separator ``node``'s domain under ``env``: (constant, mentioned
        child or ``None`` for the fresh child) per constant the union mentions
        or a stored row of its predicates has, in domain order, then the first
        other constant; and the others, the batched rest, evaluated once."""
        mentioned, explicit = self.plan.separator(node, env), self.db.explicit_constants(node.arg[3])
        slots, rest = [], []
        for const in self.db.schema.domain:
            child = mentioned.get(const.name)
            if child is not None or const.name in explicit:
                slots.append((const, child))
            else:
                rest.append(const)
        return slots + [(c, None) for c in rest[:1]], rest

    def _separator_product(self, node: _Node, env: Mapping[str, Constant]) -> tuple[Prob, ...]:
        """Complement product over the domain, the batched rest last: per view,
        the slots' logcs summed in domain order, the rest's raised to its
        size first, in the bits of ``disj`` after ``power_disj``.  The fresh
        child's constants are one column, made where the first of them falls."""
        slots, rest = self._partition(node, env)
        parts, batch = [], None
        for _, child in slots:
            if child is not None:
                parts.append([p.logc for p in self.evaluate(child, env)])
                continue
            if batch is None:
                column = self._evaluate_many(node.fresh, env, node.arg[4],
                                             [c for c, other in slots if other is None])
                batch = zip(*(logcs for _, logcs in column))
            parts.append(next(batch))
        if rest:
            parts[-1] = [len(rest) * logc or 0.0 for logc in parts[-1]]
        ends = []
        for end in range(len(self.views)):
            s = 0.0
            for logcs in parts:
                s += logcs[end]
            ends.append(Prob(-math.expm1(s), s) if s else IMPOSSIBLE)  # at -inf, CERTAIN
        return tuple(ends)

    def _evaluate_many(self, node: _Node, env: Mapping[str, Constant], name: str, consts: list, names=None) -> list:
        """The column of ``node`` under ``env`` with placeholder ``name`` bound
        to each of ``consts`` (named ``names`` if given): per view, their
        values and their logcs.  An atom leaf without a repeated variable and
        an ``and`` of single nodes are one memo entry per batch, after their
        children's, which share its ``names``, the ``and`` in the bits of
        ``conj`` per constant; every other shape goes node by node."""
        rule, arg = self.plan.expand(node)
        if not node.batches:
            return self._column(self._each(node, env, name, consts))
        key = node.batch_key(env, name, names or tuple(map(operator.attrgetter("name"), consts)))
        column = self._memo.get(key)
        if column is None:
            if rule == "atom":
                column = self._leaf_column(node, env, name, key[2])
            else:
                columns = [self._evaluate_many(child, env, name, consts, key[2]) for child, in arg]
                column = columns[0] if len(columns) == 1 else [_conj_column(ends) for ends in zip(*columns)]
            self._memo[key] = column
        return column

    def _each(self, node: _Node, env: Mapping[str, Constant], name: str, consts: list) -> list[tuple[Prob, ...]]:
        return [self.evaluate(node, {**env, name: c}) for c in consts]

    def _column(self, values: list[tuple[Prob, ...]]) -> list[tuple[list[float], list[float]]]:
        """The column of node-by-node ``values``."""
        return [([p.value for p in ps], [p.logc for p in ps]) for ps in zip(*values)]

    def _leaf_column(self, node: _Node, env: Mapping[str, Constant], name: str | None = None,
                     names: Sequence[str | None] = (None,)) -> list:
        """The column of the atom leaf ``node`` under ``env`` per view, with
        ``name`` bound to each of ``names`` if given: a ground atom's value
        per view, else lookups in its finished table under the template of
        ``name`` (:meth:`ProbView.finished`)."""
        (pred, _, repeated, n_vars), (slots, holes) = node.leaf, node.templates[name]
        fixed = tuple((i, env[t].name if ph else t) for i, t, ph in slots)
        if not (n_vars or holes):
            ps = [Prob.from_value(view.prob(pred, tuple(t for _, t in fixed))) for view in self.views]
            return [([p.value], [p.logc]) for p in ps]
        keys, ends = names if len(holes) <= 1 else [(c,) * len(holes) for c in names], []
        for view in self.views:
            values, logcs, absent = self.db.finished(pred, fixed, holes, n_vars, view.default_prob(pred), repeated)
            ends.append((list(map(values.get, keys, itertools.repeat(absent.value))),
                         list(map(logcs.get, keys, itertools.repeat(absent.logc)))))
        return ends


def _conj_column(children: Sequence[tuple[list[float], list[float]]]) -> tuple[list[float], list[float]]:
    """Per index, ``conj`` of the ``children``'s (values, logcs) columns in
    its bits: each child's ``Prob._logv``, summed in child order, and a row
    with an impossible child impossible, the others' logs not taken."""
    values, logcs = [], []
    for row in zip(*(zip(*child) for child in children)):
        s = 0.0
        for v, lc in row:
            if v <= 0.0:
                values.append(0.0)
                logcs.append(0.0)
                break
            s += math.log1p(-math.exp(lc)) if lc < -0.5 else math.log(v)
        else:
            c = -math.expm1(s)  # 1 - exp(s), accurate when s is tiny
            values.append(math.exp(s))
            logcs.append(math.log(c) if c > 0.0 else -math.inf)
    return values, logcs


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def prob_lifted(q: UCQ, db: ProbView, *, force_inclusion_exclusion: bool = False) -> float:
    """Exact query probability by lifted decomposition.

    Raises :class:`UnsafeQuery` when no decomposition rule applies; the
    caller should fall back to :func:`prob_ground` or an approximate bound.
    ``force_inclusion_exclusion`` selects the plan's conjunction rule: the
    full inclusion-exclusion sum instead of the independent-product
    shortcut; results must agree either way.
    """
    return Evaluator(db, plan=Plan(force_inclusion_exclusion=force_inclusion_exclusion)).probability(q).value


def prob_lifted_detail(q: UCQ, db: ProbView, *, force_inclusion_exclusion: bool = False) -> Prob:
    """Like :func:`prob_lifted` but returns the value together with the log
    of its complement."""
    return Evaluator(db, plan=Plan(force_inclusion_exclusion=force_inclusion_exclusion)).probability(q)


def prob_ground(q: UCQ, db: ProbView, *, cap_worlds: int = DEFAULT_WORLD_CAP) -> float:
    """Query probability, for any query, by compiling its lineage: a DNF
    over the uncertain tuples with a clause per way the stored rows satisfy
    a disjunct (every domain instance, for a predicate whose absent atoms
    have a probability), certain tuples folded in and clauses containing
    another dropped.  Refuses with :class:`CapExceeded` when more than
    ``cap_worlds`` uncertain tuples are involved or the compiled nodes hold
    more than :data:`LINEAGE_CAP` clauses in all.
    """
    return prob_ground_detail(q, db, cap_worlds=cap_worlds).value


def prob_ground_detail(q: UCQ, db: ProbView, *, cap_worlds: int = DEFAULT_WORLD_CAP) -> Prob:
    """Like :func:`prob_ground` but returns the value together with the log
    of its complement."""
    live: set[frozenset[Atom]] = set()
    for d in q.disjuncts:
        for conj in _lineage(db, d.atoms, {}, frozenset()):
            if not conj:
                return CERTAIN  # a conjunct holds in every world
            live.add(conj)
            if len(live) > LINEAGE_CAP:
                raise CapExceeded(f"the lineage has more than {LINEAGE_CAP} clauses")
    # drop conjuncts that contain another; a conjunct is as wide as its disjunct
    minimal = [c for c in live
               if not any(frozenset(s) in live for r in range(1, len(c)) for s in itertools.combinations(c, r))]
    # world bits in canonical atom order, not set order: the value must not
    # depend on the hash seed
    atoms = sorted(set().union(*minimal), key=db.schema.atom_key)
    if len(atoms) > cap_worlds:
        raise CapExceeded(f"{len(atoms)} uncertain tuples exceed the world cap {cap_worlds}")
    bit = {atom: 1 << i for i, atom in enumerate(atoms)}
    clauses = tuple(sorted(sum(map(bit.get, c)) for c in minimal))
    return _compile(clauses, [Prob.from_value(db.atom_prob(a)) for a in atoms])


def _lineage(db: ProbView, atoms: tuple[Atom, ...], binding: dict, used: frozenset) -> Iterator[frozenset[Atom]]:
    """The uncertain ground atoms of each way ``atoms`` hold with nonzero
    probability, extending ``binding``: the next atom is the one with the
    fewest free variables, and a stored-rows lookup before a domain range."""
    if not atoms:
        yield used
        return
    atom = min(atoms, key=lambda a: (db.default_prob(a.predicate) > 0.0, len(a.variables() - binding.keys())))
    rest = tuple(a for a in atoms if a is not atom)
    pattern = tuple(binding.get(t, t) for t in atom.args)
    if db.default_prob(atom.predicate) > 0.0:
        free = list(dict.fromkeys(t for t in pattern if type(t) is Variable))
        grounded = (tuple(b.get(t, t).name for t in pattern)
                    for b in (dict(zip(free, cs)) for cs in itertools.product(db.schema.domain, repeat=len(free))))
        rows = ((args, db.prob(atom.predicate, args)) for args in grounded)
    else:
        rows = db.pattern_entries(atom.predicate, pattern)
    for args, p in rows:
        if p > 0.0:
            fact = Atom(atom.predicate, tuple(map(Constant, args)))
            ext = {**binding, **{t: c for t, c in zip(pattern, fact.args) if type(t) is Variable}}
            yield from _lineage(db, rest, ext, used if p >= 1.0 else used | {fact})


def _compile(clauses: tuple[int, ...], probs: list[Prob]) -> Prob:
    """P(some clause holds) for a minimal DNF over independent tuples, a
    clause a bit mask and ``probs`` indexed by bit: Shannon expansion with
    independent components split off, memoized on the clause set (Olteanu,
    Huang & Koch, ICDE 2010).  An explicit stack in place of recursion: a
    clause set waits on its parts, then folds them in bit order."""
    memo: dict[tuple[int, ...], Prob] = {(): IMPOSSIBLE, (0,): CERTAIN}
    steps: dict[tuple[int, ...], tuple[int, list]] = {}
    stack, size = [clauses], 0
    while stack:
        f = stack[-1]
        if f in memo:
            stack.pop()
        elif f not in steps:
            size += len(f)
            if size > LINEAGE_CAP:
                raise CapExceeded(f"compiling the lineage needs more than {LINEAGE_CAP} clauses in its nodes")
            steps[f] = _shannon_step(f)
            stack += steps[f][1]
        else:
            v, parts = steps.pop(f)
            vals = [memo[g] for g in parts]
            memo[f] = probability.disj(vals) if v < 0 else probability.mix(probs[v], *vals)
            stack.pop()
    return memo[clauses]


def _shannon_step(f: tuple[int, ...]) -> tuple[int, list]:
    """``(-1, components)`` when the clauses fall into groups sharing no
    tuple, ordered by lowest bit; otherwise ``(v, [f | v true, f | v
    false])`` for the most frequent tuple ``v``, ties to the lowest bit."""
    comps: dict[int, list[int]] = {}  # the tuples of a component -> its clauses
    for c in f:
        hit = [m for m in comps if m & c]
        comps[c | sum(hit)] = [c] + [d for m in hit for d in comps.pop(m)]
    if len(comps) > 1:
        return -1, [tuple(sorted(comps[m])) for m in sorted(comps, key=lambda m: m & -m)]
    counts: dict[int, int] = {}
    for c in f:
        while c:
            counts[c & -c] = counts.get(c & -c, 0) + 1
            c &= c - 1
    v = max(counts, key=lambda b: (counts[b], -b))
    reduced = [c ^ v for c in f if c & v]
    lo = tuple(c for c in f if not c & v)
    # a clause without v that contains a reduced clause is redundant once v holds
    hi = (0,) if 0 in reduced else tuple(sorted(reduced + [c for c in lo if not any(r & c == r for r in reduced)]))
    return v.bit_length() - 1, [hi, lo]


def is_safe(q: UCQ) -> bool:
    """Whether lifted evaluation decomposes ``q`` fully: its whole plan
    builds.  Safety is a property of the query syntax.  A plan wider than
    the caps raises :class:`CapExceeded`."""
    try:
        Plan().build(q)
        return True
    except UnsafeQuery:
        return False


@functools.lru_cache(maxsize=INVERSION_FREE_CACHE)
def _inversion_free(q: UCQ) -> bool:
    """The flag of the query as given, which its minimized union, the plan
    node's, may not share."""
    return is_inversion_free(q)


def analyze_query(q: UCQ) -> QueryProfile:
    """Syntactic profile used to route evaluation."""
    return QueryProfile(
        hierarchical_per_cq=tuple(is_hierarchical(d) for d in q.disjuncts),
        inversion_free=_inversion_free(q),
        self_join_free=not has_self_join(q),
        safe=is_safe(q),
    )
