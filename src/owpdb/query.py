"""Query abstract syntax: terms, atoms, conjunctive queries, and unions.

Queries are Boolean (fully quantified) unions of conjunctive queries over a
relational vocabulary.  All types are immutable and canonicalized on
construction: atoms within a disjunct and disjuncts within a union are kept
sorted and de-duplicated, so structurally equal queries compare and hash
equal.  Variables are scoped per disjunct; the same name in two disjuncts
denotes two different variables.

Everything in this module is pure and safe for concurrent use.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import ArityMismatch, ParseError, UnknownPredicate

_BARE_CONSTANT = re.compile(r"[A-Z][A-Za-z0-9_]*")
_VARIABLE_NAME = re.compile(r"[a-z][A-Za-z0-9_]*")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Guards against exponential blowups in the syntactic decompositions.
SEPARATOR_SEARCH_CAP = 4096


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
    name: str

    def __str__(self) -> str:
        if _BARE_CONSTANT.fullmatch(self.name):
            return self.name
        return f'"{self.name}"'


@dataclass(frozen=True, slots=True)
class Placeholder(Constant):
    """A constant a query does not mention, bound at evaluation time.
    Equality includes the class: it never equals a user constant of any
    name."""

    def __str__(self) -> str:
        return f"?{self.name}"


Term = Variable | Constant


def term_key(term: Term) -> tuple:
    """Total order on terms: constants, then placeholders, then variables,
    each by name."""
    if type(term) is Variable:
        return (1, term.name)
    if type(term) is Constant:
        return (0, term.name)
    return (0, "\U0010ffff", term.name)


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to an ordered list of terms."""

    predicate: str
    args: tuple[Term, ...]

    def key(self) -> tuple:
        return (self.predicate, tuple(term_key(t) for t in self.args))

    def variables(self) -> frozenset[Variable]:
        return frozenset(t for t in self.args if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        return frozenset(t for t in self.args if isinstance(t, Constant))

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.args)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        return Atom(self.predicate, tuple(mapping.get(t, t) if isinstance(t, Variable) else t for t in self.args))

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(t) for t in self.args)})"


class ConjunctiveQuery:
    """A conjunction of atoms with all variables existentially quantified.

    The atom tuple is sorted and de-duplicated on construction.
    """

    __slots__ = ("atoms", "_hash")

    def __init__(self, atoms: Sequence[Atom]):
        if not atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        canon = tuple(sorted(set(atoms), key=Atom.key))
        object.__setattr__(self, "atoms", canon)
        object.__setattr__(self, "_hash", hash(canon))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ConjunctiveQuery is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ConjunctiveQuery) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def key(self) -> tuple:
        return tuple(a.key() for a in self.atoms)

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for a in self.atoms:
            out.update(a.variables())
        return frozenset(out)

    def constants(self) -> frozenset[Constant]:
        out: set[Constant] = set()
        for a in self.atoms:
            out.update(a.constants())
        return frozenset(out)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        return ConjunctiveQuery([a.substitute(mapping) for a in self.atoms])

    def __str__(self) -> str:
        return ", ".join(str(a) for a in self.atoms)

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self})"


class UCQ:
    """A union of conjunctive queries; monotone, negation-free, Boolean.

    Disjuncts are sorted and de-duplicated on construction.  Duplicate
    removal is purely syntactic; semantic redundancy is handled separately
    by :func:`minimize`.
    """

    __slots__ = ("disjuncts", "_hash")

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery]):
        if not disjuncts:
            raise ValueError("a union of conjunctive queries needs at least one disjunct")
        canon = tuple(sorted(set(disjuncts), key=ConjunctiveQuery.key))
        object.__setattr__(self, "disjuncts", canon)
        object.__setattr__(self, "_hash", hash(canon))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("UCQ is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, UCQ) and self.disjuncts == other.disjuncts

    def __hash__(self) -> int:
        return self._hash

    def all_atoms(self) -> Iterator[Atom]:
        for d in self.disjuncts:
            yield from d.atoms

    def predicates(self) -> frozenset[str]:
        return frozenset(a.predicate for a in self.all_atoms())

    def constants(self) -> frozenset[Constant]:
        out: set[Constant] = set()
        for d in self.disjuncts:
            out.update(d.constants())
        return frozenset(out)

    def __str__(self) -> str:
        return " | ".join(str(d) for d in self.disjuncts)

    def __repr__(self) -> str:
        return f"UCQ({self})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_PUNCT = {"(", ")", ",", "|"}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string constant", i)
            if j == i + 1:
                raise ParseError("empty string constant", i)
            tokens.append(_Token("string", text[i + 1 : j], i))
            i = j + 1
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], arities: Mapping[str, int], known=None):
        self.tokens = tokens
        self.arities = arities
        self.known = known  # whether a constant name is in the domain, when one is given
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.i += 1
        return tok

    def ucq(self) -> UCQ:
        disjuncts = [self.cq()]
        while self.peek().kind == "|":
            self.take("|")
            disjuncts.append(self.cq())
        self.take("eof")
        return UCQ(disjuncts)

    def cq(self) -> ConjunctiveQuery:
        atoms = [self.atom()]
        while self.peek().kind == ",":
            self.take(",")
            atoms.append(self.atom())
        return ConjunctiveQuery(atoms)

    def atom(self) -> Atom:
        tok = self.take("ident")
        pred = tok.text
        if pred not in self.arities:
            raise UnknownPredicate(f"predicate {pred!r} is not declared in the schema")
        self.take("(")
        args = [self.term()]
        while self.peek().kind == ",":
            self.take(",")
            args.append(self.term())
        self.take(")")
        if len(args) != self.arities[pred]:
            raise ArityMismatch(
                f"predicate {pred!r} has arity {self.arities[pred]}, got {len(args)} arguments"
            )
        return Atom(pred, tuple(args))

    def term(self) -> Term:
        tok = self.take("string" if self.peek().kind == "string" else "ident")
        # a name starts with a letter: lower case names a variable
        if tok.kind == "ident" and _VARIABLE_NAME.fullmatch(tok.text):
            return Variable(tok.text)
        if self.known is not None and not self.known(tok.text):
            raise ParseError(f"constant {tok.text!r} is not in the domain", tok.pos)
        return Constant(tok.text)


def parse_ucq(text: str, schema) -> UCQ:
    """Parse query text against a schema.

    Grammar: ``ucq := cq {"|" cq}``, ``cq := atom {"," atom}``,
    ``atom := PRED "(" term {"," term} ")"``.  Variables match
    ``[a-z][A-Za-z0-9_]*``; constants match ``[A-Z][A-Za-z0-9_]*`` or a
    double-quoted string.  Whitespace is insignificant.

    ``schema`` may be a :class:`~owpdb.database.Schema`, whose domain then
    holds every constant, or any mapping from predicate name to arity.
    """
    arities = schema.predicates if hasattr(schema, "predicates") else schema
    return _Parser(_tokenize(text), arities, getattr(schema, "has_constant", None)).ucq()


# ---------------------------------------------------------------------------
# Unification and independence
# ---------------------------------------------------------------------------


def atoms_unifiable(a1: Atom, a2: Atom, scope1, scope2) -> bool:
    """True iff the two atoms have a common ground instance.

    Variables are scoped by the given tags, so identically named variables
    on the two sides are distinct unless the scopes coincide.
    """
    if a1.predicate != a2.predicate or len(a1.args) != len(a2.args):
        return False
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def node(t: Term, scope):
        return ("c", t) if isinstance(t, Constant) else ("v", scope, t.name)

    for t1, t2 in zip(a1.args, a2.args):
        r1, r2 = find(node(t1, scope1)), find(node(t2, scope2))
        if r1 == r2:
            continue
        if r1[0] == "c" and r2[0] == "c":
            return False
        # keep constants as union-find roots so conflicts surface
        if r1[0] == "c":
            parent[r2] = r1
        else:
            parent[r1] = r2
    return True


def ucqs_dependent(u1: UCQ, u2: UCQ) -> bool:
    """True iff some atom of ``u1`` unifies with some atom of ``u2``."""
    for i, d1 in enumerate(u1.disjuncts):
        for j, d2 in enumerate(u2.disjuncts):
            for a1 in d1.atoms:
                for a2 in d2.atoms:
                    if atoms_unifiable(a1, a2, (0, i), (1, j)):
                        return True
    return False


def _dependence_groups(items: Sequence, dependent) -> list[list]:
    """Partition items into connected groups under a pairwise dependence test."""
    n = len(items)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = find(i), find(j)
            if ri != rj and dependent(items[i], items[j]):
                parent[rj] = ri
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(items[i])
    return [groups[r] for r in sorted(groups)]


def independence_groups(units: Sequence[UCQ]) -> list[list[UCQ]]:
    """Group sub-queries so that members of different groups share no
    unifiable atoms and are therefore probabilistically independent."""
    return _dependence_groups(list(units), ucqs_dependent)


def variable_components(cq: ConjunctiveQuery) -> list[tuple[Atom, ...]]:
    """Split a conjunct into maximal groups of atoms linked by shared
    variables, ordered by first atom.  Ground atoms are singleton
    components."""
    groups = _dependence_groups(cq.atoms, lambda a, b: not a.variables().isdisjoint(b.args))
    return sorted(map(tuple, groups), key=lambda g: g[0].key())


# ---------------------------------------------------------------------------
# Containment and minimization
# ---------------------------------------------------------------------------


def _hom_exists(src: Sequence[Atom], dst: Sequence[Atom]) -> bool:
    """Is there a homomorphism mapping every atom of ``src`` onto an atom of
    ``dst``?  Source variables map to destination terms; constants are fixed."""
    by_pred: dict[str, list[Atom]] = {}
    for a in dst:
        by_pred.setdefault(a.predicate, []).append(a)
    if any(a.predicate not in by_pred for a in src):
        return False
    order = sorted(src, key=lambda a: len(by_pred[a.predicate]))

    def extend(binding: dict, a: Atom, b: Atom):
        new = dict(binding)
        for ta, tb in zip(a.args, b.args):
            if isinstance(ta, Constant):
                if ta != tb:
                    return None
            else:
                bound = new.get(ta)
                if bound is None:
                    new[ta] = tb
                elif bound != tb:
                    return None
        return new

    def rec(i: int, binding: dict) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for b in by_pred[a.predicate]:
            nb = extend(binding, a, b)
            if nb is not None and rec(i + 1, nb):
                return True
        return False

    return rec(0, {})


def cq_implies(c1: ConjunctiveQuery, c2: ConjunctiveQuery) -> bool:
    """True iff every world satisfying ``c1`` also satisfies ``c2``."""
    return _hom_exists(c2.atoms, c1.atoms)


def ucq_implies(u1: UCQ, u2: UCQ) -> bool:
    """True iff ``u1`` logically entails ``u2``."""
    return all(any(cq_implies(d, e) for e in u2.disjuncts) for d in u1.disjuncts)


def _drop_entailing(items: Sequence, implies) -> list:
    """The items that imply no other item, in order; of equivalent items
    the first is kept.  A union keeps its weakest disjuncts (``implies`` is
    entailment) and a conjunction its strongest parts (``implies`` is
    entailment reversed)."""
    kept = []
    for i, x in enumerate(items):
        for j, y in enumerate(items):
            if i != j and implies(x, y) and (j < i or not implies(y, x)):
                break
        else:
            kept.append(x)
    return kept


def minimize(q: UCQ) -> UCQ:
    """Drop disjuncts that entail another disjunct.

    Equivalent disjuncts keep their canonically smallest representative, so
    the result is deterministic.
    """
    return q if len(q.disjuncts) == 1 else UCQ(_drop_entailing(q.disjuncts, cq_implies))


# ---------------------------------------------------------------------------
# Syntactic analyses
# ---------------------------------------------------------------------------


def is_hierarchical(cq: ConjunctiveQuery) -> bool:
    """For every variable pair, the sets of atoms containing them must be
    nested or disjoint."""
    at: dict[Variable, frozenset[int]] = {}
    for i, a in enumerate(cq.atoms):
        for v in a.variables():
            at[v] = at.get(v, frozenset()) | {i}
    for x, y in itertools.combinations(at.values(), 2):
        if not (x <= y or y <= x or not (x & y)):
            return False
    return True


def has_self_join(q: UCQ) -> bool:
    """True iff some predicate occurs in more than one atom anywhere in ``q``."""
    seen: set[str] = set()
    for a in q.all_atoms():
        if a.predicate in seen:
            return True
        seen.add(a.predicate)
    return False


def _root_variables(atoms: Sequence[Atom]) -> list[Variable]:
    """Variables occurring in every atom of the component, ordered by first
    occurrence in canonical atom order."""
    common = set(atoms[0].variables())
    for a in atoms[1:]:
        common &= a.variables()
    order: list[Variable] = []
    for a in atoms:
        for t in a.args:
            if isinstance(t, Variable) and t in common and t not in order:
                order.append(t)
    return order


def find_separator(disjuncts: Sequence[Sequence[Atom]]) -> tuple[Variable, ...] | None:
    """Choose one variable per disjunct so that substituting a shared constant
    splits the union into independent slices.

    Each chosen variable must occur in every atom of its disjunct, and for
    every predicate there must be one argument position carrying the chosen
    variable in all of that predicate's atoms across the whole union.
    Returns the choice aligned with ``disjuncts``, or ``None``.
    """
    roots: list[list[Variable]] = []
    for atoms in disjuncts:
        r = _root_variables(atoms)
        if not r:
            return None
        roots.append(r)

    budget = [SEPARATOR_SEARCH_CAP]
    choice: list[Variable] = []

    def positions_ok(pred_pos: dict[str, frozenset[int]], atoms, var) -> dict | None:
        new = dict(pred_pos)
        for a in atoms:
            here = frozenset(i for i, t in enumerate(a.args) if t == var)
            cur = new.get(a.predicate)
            merged = here if cur is None else cur & here
            if not merged:
                return None
            new[a.predicate] = merged
        return new

    def rec(i: int, pred_pos: dict) -> bool:
        if budget[0] <= 0:
            return False
        if i == len(disjuncts):
            return True
        for var in roots[i]:
            budget[0] -= 1
            np = positions_ok(pred_pos, disjuncts[i], var)
            if np is not None:
                choice.append(var)
                if rec(i + 1, np):
                    return True
                choice.pop()
        return False

    if rec(0, {}):
        return tuple(choice)
    return None


def substitute_separator(q: UCQ, separator: tuple[Variable, ...], const: Constant) -> UCQ:
    """Replace each disjunct's separator variable by ``const``."""
    return UCQ([d.substitute({v: const}) for d, v in zip(q.disjuncts, separator)])


def is_inversion_free(q: UCQ) -> bool:
    """True iff every disjunct is hierarchical and a shared separator
    variable can be chosen at every level of a joint recursive decomposition
    of all disjuncts."""
    if not all(is_hierarchical(d) for d in q.disjuncts):
        return False
    return _jointly_decomposable(list(q.disjuncts), 0)


def _jointly_decomposable(units: list[ConjunctiveQuery], depth: int) -> bool:
    comps: list[ConjunctiveQuery] = []
    for u in units:
        for atoms in variable_components(u):
            c = ConjunctiveQuery(atoms)
            if c.variables():
                comps.append(c)
    if not comps:
        return True
    groups = _dependence_groups(
        comps, lambda c1, c2: ucqs_dependent(UCQ([c1]), UCQ([c2]))
    )
    if len(groups) > 1:
        return all(_jointly_decomposable(g, depth) for g in groups)
    sep = find_separator([c.atoms for c in comps])
    if sep is None:
        return False
    # Substitute every constant the components mention, plus one fresh
    # representative: structure after substitution can depend on whether the
    # substituted constant already occurs in the query.
    mentioned = sorted({c for comp in comps for c in comp.constants()}, key=term_key)
    probes = mentioned + [Placeholder(str(depth))]
    for const in probes:
        sub = [c.substitute({v: const}) for c, v in zip(comps, sep)]
        if not _jointly_decomposable(sub, depth + 1):
            return False
    return True


@dataclass(frozen=True, slots=True)
class QueryProfile:
    """Syntactic routing flags for a query."""

    hierarchical_per_cq: tuple[bool, ...]
    inversion_free: bool
    self_join_free: bool
    safe: bool
