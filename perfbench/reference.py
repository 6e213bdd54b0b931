"""Reference answers computed without owpdb.

Queries are lists of disjuncts; a disjunct is a list of atoms
``(predicate, args)`` whose args are variable names (lowercase) or constant
names.  A relation table maps argument tuples to probabilities; an absent
tuple has probability ``default`` (0 for the closed world, the completion
probability for the fully completed open world).

Probabilities are carried as the natural log of their complement, so
values within 1e-300 of 1 keep their precision, the same contract owpdb
promises for its open-world bounds.
"""
from __future__ import annotations

import itertools
import math

NEG_INF = float("-inf")


def is_var(term: str) -> bool:
    return term[:1].islower()


def query_text(ucq) -> str:
    """Render a query in owpdb's surface syntax."""
    return " | ".join(
        ", ".join(f"{pred}({','.join(args)})" for pred, args in cq) for cq in ucq
    )


def value_of(logc: float) -> float:
    """P from log(1 - P)."""
    return -math.expm1(logc)


def _logv(logc: float) -> float:
    """log P from log(1 - P), taken from the sharper side."""
    if logc == 0.0:
        return NEG_INF
    if logc < -0.5:
        return math.log1p(-math.exp(logc))
    return math.log(-math.expm1(logc))


def _logc_of_logv(logv: float) -> float:
    if logv == NEG_INF:
        return 0.0
    if logv == 0.0:
        return NEG_INF
    return math.log(-math.expm1(logv))


def _log1m(p: float) -> float:
    return NEG_INF if p >= 1.0 else math.log1p(-p)


class NotHierarchical(ValueError):
    pass


class Reference:
    """Closed-form evaluator for self-join-free hierarchical queries.

    ``tables`` maps each predicate to ``{args: p}``; ``default`` is the
    probability of every absent tuple.
    """

    def __init__(self, domain, tables, default: float = 0.0):
        self.domain = list(domain)
        self.tables = tables
        self.default = float(default)
        self._index: dict[tuple, dict] = {}

    def _matches(self, pred, args):
        """Stored rows of ``pred`` agreeing with the constants of ``args``."""
        bound = tuple(i for i, t in enumerate(args) if not is_var(t))
        index = self._index.get((pred, bound))
        if index is None:
            index = {}
            for row, p in self.tables.get(pred, {}).items():
                index.setdefault(tuple(row[i] for i in bound), []).append((row, p))
            self._index[(pred, bound)] = index
        return index.get(tuple(args[i] for i in bound), ())

    def atom_logc(self, pred, args) -> float:
        """log P(no ground instance of the atom holds)."""
        variables = [t for t in args if is_var(t)]
        if not variables:
            p = self.tables.get(pred, {}).get(tuple(args), self.default)
            return _log1m(p)
        positions: dict[str, list[int]] = {}
        for i, t in enumerate(args):
            if is_var(t):
                positions.setdefault(t, []).append(i)
        total = 0.0
        n_stored = 0
        for row, p in self._matches(pred, args):
            if any(len({row[i] for i in idx}) != 1 for idx in positions.values()):
                continue
            n_stored += 1
            total += _log1m(p)
        n_absent = len(self.domain) ** len(positions) - n_stored
        if n_absent and self.default > 0.0:
            total += n_absent * _log1m(self.default)
        return total

    def cq_logc(self, atoms) -> float:
        """log P(not cq) for a conjunction of atoms without self-joins."""
        logv = 0.0
        for comp in _components(atoms):
            if len(comp) == 1:
                lc = self.atom_logc(*comp[0])
            else:
                root = _root_variable(comp)
                lc = 0.0
                for const in self.domain:
                    lc += self.cq_logc(_substitute(comp, root, const))
                    if lc == NEG_INF:
                        break
            logv += _logv(lc)
            if logv == NEG_INF:
                return 0.0
        return _logc_of_logv(logv)

    def ucq_logc(self, ucq) -> float:
        """log P(not q) for a union of disjuncts over disjoint predicates."""
        seen: set[str] = set()
        total = 0.0
        for cq in ucq:
            preds = {pred for pred, _ in cq}
            if seen & preds:
                raise NotHierarchical("disjuncts share a predicate")
            seen |= preds
            total += self.cq_logc(cq)
        return total

    def with_added(self, pred, rows, p) -> "Reference":
        """The same database with ``rows`` of ``pred`` stored at ``p``."""
        tables = dict(self.tables)
        table = dict(tables.get(pred, {}))
        for row in rows:
            table[tuple(row)] = p
        tables[pred] = table
        return Reference(self.domain, tables, self.default)


def _components(atoms):
    """Variable-connected components; ground atoms stand alone."""
    comps: list[list] = []
    for atom in atoms:
        vs = {t for t in atom[1] if is_var(t)}
        merged = [atom]
        rest = []
        for comp in comps:
            if vs and vs & {t for _, a in comp for t in a if is_var(t)}:
                merged.extend(comp)
            else:
                rest.append(comp)
        comps = rest + [merged]
    return comps


def _root_variable(atoms) -> str:
    common = None
    for _, args in atoms:
        vs = {t for t in args if is_var(t)}
        common = vs if common is None else common & vs
    if not common:
        raise NotHierarchical(f"no root variable in {atoms}")
    return min(common)


def _substitute(atoms, var, const):
    return [(pred, tuple(const if t == var else t for t in args)) for pred, args in atoms]


def chain_prob(domain, r, s, t) -> float:
    """P(R(x), S(x,y), T(y)) by summing over the truth assignments of the
    stored T tuples; given them, the query is hierarchical in x."""
    t_rows = sorted(t.items())
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(t_rows)):
        weight = 1.0
        true_ys = set()
        for (args, p), b in zip(t_rows, bits):
            weight *= p if b else 1.0 - p
            if b:
                true_ys.add(args[0])
        if weight == 0.0:
            continue
        s_true = {args: p for args, p in s.items() if args[1] in true_ys}
        ref = Reference(domain, {"R": r, "S": s_true})
        total += weight * value_of(ref.cq_logc([("R", ("x",)), ("S", ("x", "y"))]))
    return total
