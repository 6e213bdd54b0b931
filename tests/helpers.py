"""Test-only helpers: the world-enumeration oracle with the Herbrand
grounding it enumerates, its exact rational form with greedy over exact
gains, a scientist database with every constant stored, a database whose
separator constants each need inclusion-exclusion, random
3-dimensional matching instances, the references for the set-at-a-time
code (the evaluator node by node and greedy's reverse pass constant by
constant), and threads started together with a check of the plan table
they share."""
import functools
import importlib.util
import itertools
import math
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from owpdb import engine, probability
from owpdb.database import Database, Schema
from owpdb.engine import Evaluator, _bind_atom
from owpdb.errors import CapExceeded
from owpdb.openworld import open_tuples
from owpdb.oracle import ThreeDMInstance
from owpdb.probability import CERTAIN, IMPOSSIBLE, Prob
from owpdb.query import UCQ, Atom, Constant, Variable


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


def load_tool(name):
    """The module ``tools/<name>.py``, which is not a package."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# For ``R(x), U(y, x) | S(z, y), U(z, y)``: the scaling tool's family rows'
# database (``R`` on two constants, ``S`` at density 0.3, ``U`` at 0.2), seed 2.
family_db = functools.partial(load_tool("scaling").family_db, seed=2)


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


class NodeByNode(Evaluator):
    """The reference evaluator: a separator's fresh child node by node, its
    column built from the per-constant values, and a leaf a ``Prob`` per row
    folded by ``disj``."""

    def _evaluate_many(self, node, env, name, consts):
        return self._column(self._each(node, env, name, consts))

    def _leaf_value(self, node, env):
        db, (pred, slots, repeated, n_vars) = self.db, node.leaf
        bound = tuple((i, env[t].name if ph else t) for i, t, ph in slots)
        if not n_vars:
            return (Prob.from_value(db.prob(pred, tuple(t for _, t in bound))),)
        stored = [p for _, p in db.pattern_entries(pred, repeated, bound)]
        parts = [Prob.from_value(p) for p in stored if p > 0.0]
        n_absent = len(db.schema.domain) ** n_vars - len(stored)
        if n_absent > 0 and db.default_prob(pred) > 0.0:
            parts.append(probability.power_disj(Prob.from_value(db.default_prob(pred)), n_absent))
        return (probability.disj(parts) if parts else IMPOSSIBLE,)


def reference_gradient(ev, q, pred):
    """The reference for :meth:`owpdb.engine.Evaluator.gradient`: the reverse
    pass over ``ev``'s memo constant by constant, a batch flattened into one
    key per constant (:func:`_flat`), at the first entry that holds it.  An
    atom block weighs each absent instance by its complement, a complement
    product gives each part the product of the others' complements (none
    when it is certain), independent groups the product of the others'
    values, and inclusion-exclusion terms their signs.  A separator's
    batched rest takes one member's adjoint, tagged with the swaps carrying
    its representative to each member, over which a leaf expands."""
    flat, todo, leaves = _flat(ev), {}, {}

    def push(node, env, tag, a):
        adj = todo.setdefault(node.key(env), (env, {}))[1]
        adj[tag] = adj.get(tag, 0.0) + a

    push(ev.plan.node(q), {}, (), 1.0)
    for key in reversed(flat):
        if key not in todo:
            continue
        env, adj = todo.pop(key)
        node = key[0] if type(key) is tuple else key
        rule, arg = node.rule, node.arg
        logc = flat[key][1]
        if rule == "atom":
            atom = _bind_atom(arg, env) if node.placeholders else arg
            if atom.predicate == pred:
                w = 1.0 if atom.is_ground() else math.exp(logc)
                _add_leaf(leaves, atom.args, {tag: a * w for tag, a in adj.items()})
        elif rule == "and":
            vals = [flat[g[0].key(env)][0] if len(g) == 1 else ev._group(g, env)[0].value for g in arg]
            for i, g in enumerate(arg):
                others = math.prod(vals[:i] + vals[i + 1:])
                for sign, n in ((1, g[0]),) if len(g) == 1 else ev.plan.terms(g):
                    for tag, a in adj.items():
                        push(n, env, tag, sign * a * others)
        elif logc > -math.inf:  # "or", "sep"; at 1 no tuple can raise P
            children, rest = ([(u, env) for u in arg], ()) if rule == "or" else ev._partition(node, env)
            if rule == "sep":  # (constant, child) slots to (child, environment) pairs
                child_of = separator_children(ev.plan, node, env)
                children = [child_of(c) for c, _ in children]
            # i reaches 0 at the last child: the batched rest's
            # representative, which carries its swaps
            swaps = ((rest[0].name, tuple(c.name for c in rest)),) if len(rest) > 1 else ()
            for i, (child, child_env) in enumerate(children, 1 - len(children)):
                others = math.exp(logc - flat[child.key(child_env)][1])
                for tag, a in adj.items():
                    push(child, child_env, tag if i else tag + swaps, a * others)

    index = [([i for i, s in enumerate(shape) if s < 0], [(i, s) for i, s in enumerate(shape) if 0 <= s != i], table)
             for shape, table in leaves.items()]

    def screen(args):
        return sum(table.get(tuple(args[i] for i in consts), 0.0)
                   for consts, ties, table in index if all(args[i] == args[j] for i, j in ties))

    screen.reads = tuple(sorted({i for consts, ties, _ in index for i in itertools.chain(consts, *ties)}))
    return screen


def assert_same_screens_as_reference(view, q, pred, plan):
    """The screen of ``q`` by ``gradient`` equals :func:`reference_gradient`'s
    for every ``pred`` atom of ``view``, with the same ``reads``, on an
    evaluator batched set at a time and on one walking node by node."""
    domain = [c.name for c in view.schema.domain]
    for cls in (Evaluator, NodeByNode):
        ev = cls(view, plan=plan)
        ev.probability(q)
        screen, oracle = ev.gradient(q, pred), reference_gradient(ev, q, pred)
        assert screen.reads == oracle.reads, (cls.__name__, str(q), pred)
        for args in itertools.product(domain, repeat=view.schema.arity(pred)):
            assert screen(args) == oracle(args), (cls.__name__, str(q), pred, args)


def separator_children(plan, node, env):
    """The separator ``node``'s map under ``env`` from a domain constant to
    its child and that child's environment: the mentioned child, or the
    fresh child with its placeholder bound."""
    mentioned = plan.separator(node, env)

    def child_of(const):
        child = mentioned.get(const.name)
        if child is not None:
            return child, env
        return node.fresh, {**env, node.arg[4]: const}

    return child_of


def _flat(ev):
    """The memo as the walk node by node writes it, (value, logc) per
    key: a batch's constants each under their own key, at the first
    entry that holds it.  One view only."""
    flat = {}
    for key, value in ev._memo.items():
        if type(key) is tuple and len(key) == 3:  # a batch
            node, names, consts = key
            at = names.index(None)
            (values, logcs), = value
            for c, v, lc in zip(consts, values, logcs):
                flat.setdefault((node, names[:at] + (c,) + names[at + 1:]), (v, lc))
        else:
            flat.setdefault(key, (value[0].value, value[0].logc))
    return flat


def _add_leaf(leaves, args, adj):
    """Add a leaf pattern's weights to ``leaves``, indexed by its shape (per
    position -1 for a constant, else the first position of its variable)
    and its constants, once per swap of each tag's batched rests."""
    table = leaves.setdefault(tuple(-1 if type(t) is not Variable else args.index(t) for t in args), {})
    for tag, w in adj.items():
        keys = [tuple(t.name for t in args if type(t) is not Variable)]
        for rep, members in reversed(tag):
            keys = [tuple(m if k == rep else rep if k == m else k for k in key) for key in keys for m in members]
        for key in keys:
            table[key] = table.get(key, 0.0) + w


def race(work, threads):
    """``work(k)`` for each of ``threads`` threads, started together and
    switching often; an exception in a thread fails the test."""
    start = threading.Barrier(threads)
    got, errors = [None] * threads, []

    def body(k):
        try:
            start.wait(timeout=60)
            got[k] = work(k)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=body, args=(k,)) for k in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors
    return got


def assert_whole_plan_table():
    """Every process-wide plan table holds one node per canonical union,
    each unexpanded or with its whole rule."""
    for nodes, terms, texts in engine._TABLES.values():
        for node in nodes.values():
            assert nodes[node.query] is node
            if node.rule is None:
                assert (node.arg, node.children, node.fresh, node.leaf) == (None,) * 4
            else:
                assert node.children is not None and (node.leaf is not None) == (node.rule == "atom")
                assert (node.fresh is not None) == (node.rule == "sep")
                assert all(nodes[child.query] is child for child in node.children)
        assert all(nodes[n.query] is n for group, signed in terms.items() for n in [*group, *(n for _, n in signed)])
        # a parsed text is kept while its schema lives, under that schema's id
        assert all(ref() is not None and id(ref()) == key[1] and isinstance(q, UCQ) for key, (ref, q) in texts.items())
