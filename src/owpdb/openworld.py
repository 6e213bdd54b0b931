"""Open-world completions, probability intervals, and mean-probability budgets.

An open database pairs a probabilistic database with a completion probability
``lam``: every absent atom may be assigned any probability up to ``lam``.
For monotone queries the unconstrained probability interval runs from the
closed-world value to the value of the full completion.  A mean-tuple-
probability bound on one relation converts into a discrete budget: the
number of tuples that can be added at ``lam`` without pushing the relation's
mean probability past the bound.

Everything here is pure and immutable; concurrent use is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Sequence

from .database import Database, LambdaCompletionView, ProbView, Schema
from .engine import Evaluator
from .errors import SchemaError
from .query import Atom, Constant, Term, UCQ, Variable

# Slack absorbing float noise when a mean bound lands exactly on a budget
# boundary; exact multiples of ``lam`` resolve to the intended whole budget.
BUDGET_EPSILON = 1e-9


@dataclass(frozen=True)
class OpenPDB:
    """A probabilistic database together with its completion probability."""

    pdb: Database
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise SchemaError(f"completion probability {self.lam} outside [0, 1]")

    @property
    def schema(self) -> Schema:
        return self.pdb.schema


@dataclass(frozen=True, slots=True)
class MTPConstraint:
    """Inclusive upper bound on the mean tuple probability of one relation."""

    relation: str
    mean_bound: float

    def __post_init__(self):
        if not 0.0 < self.mean_bound <= 1.0:
            raise SchemaError(f"mean bound {self.mean_bound} outside (0, 1]")


@dataclass(frozen=True, slots=True)
class Budget:
    """Discrete completion budget derived from a mean constraint.

    ``infeasible`` flags the case where the existing tuple mass already
    violates the bound; the budget is then zero."""

    relation: str
    max_added: int
    infeasible: bool = False

    def __post_init__(self):
        if self.max_added < 0:
            raise SchemaError("budget must be non-negative")


@dataclass(frozen=True, slots=True)
class CompletionChoice:
    """The set of open tuples chosen to receive the completion probability."""

    added: frozenset[Atom]

    def sorted_atoms(self, schema: Schema) -> tuple[Atom, ...]:
        return tuple(sorted(self.added, key=schema.atom_key))


@dataclass(frozen=True)
class BoundResult:
    """A probability bound with its provenance.

    ``kind`` is one of ``closed``, ``open_upper``, ``mtp_exact``,
    ``mtp_greedy``, ``mtp_oracle``.  ``interval`` brackets the true value
    when the method only bounds it.  ``complement_log10`` reports values too
    close to 1 for their complement to survive in the value itself.
    """

    kind: str
    value: float
    interval: tuple[float, float] | None = None
    witness: CompletionChoice | None = None
    complement_log10: float | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.interval is not None:
            lo, hi = self.interval
            if not (lo <= self.value + 1e-12 and self.value <= hi + 1e-12):
                raise ValueError(
                    f"value {self.value} outside its interval [{lo}, {hi}]"
                )


def open_args(view: ProbView, rel: str, terms: Sequence[Term]) -> Iterator[tuple[str, ...]]:
    """Argument names of the atoms of ``rel`` absent from ``view`` that
    instantiate ``terms``, lazily, in canonical (domain-order lexicographic)
    order: a product over the distinct terms' pools, skipping stored rows;
    none when a constant is outside the domain."""
    distinct = list(dict.fromkeys(terms))
    if not all(isinstance(t, Variable) or view.schema.has_constant(t.name) for t in distinct):
        return
    # a tuple of names per distinct term (product() copies no tuple); a
    # repeated term reads its first occurrence's pool
    pools = [view.schema._names if isinstance(t, Variable) else (t.name,) for t in distinct]
    spread = None if len(distinct) == len(terms) else [distinct.index(t) for t in terms]
    is_explicit = view.is_explicit
    for args in product(*pools):
        if spread is not None:
            args = tuple(args[j] for j in spread)
        if not is_explicit(rel, args):
            yield args


def open_representatives(view: ProbView, rel: str, reads: Sequence[int]) -> Iterator[tuple[str, ...]]:
    """Per projection onto the sorted positions ``reads``, in canonical
    order, the first in canonical order of the atoms of ``rel`` absent from
    ``view`` that have it (:func:`open_args` with those positions bound),
    if any: one representative per group of absent atoms agreeing there."""
    free = [Variable(f"x{i}") for i in range(view.schema.arity(rel))]
    # every group is one atom: one stream lists them about ten times
    # faster than one bound open_args call per atom
    if len(reads) == len(free):
        yield from open_args(view, rel, free)
        return
    for key in product(view.schema.domain, repeat=len(reads)):
        terms = free[:]
        for i, const in zip(reads, key):
            terms[i] = const
        yield from islice(open_args(view, rel, terms), 1)


def open_tuples(g: OpenPDB, rel: str) -> list[Atom]:
    """All ground atoms of ``rel`` absent from the database, in canonical order."""
    free = [Variable(f"x{i}") for i in range(g.schema.arity(rel))]
    return [Atom(rel, tuple(map(Constant, args))) for args in open_args(g.pdb, rel, free)]


def apply_completion(g: OpenPDB, atoms: Iterable[Atom]) -> ProbView:
    """The database with ``atoms`` added at the completion probability, in
    canonical atom order, as an overlay view; the database itself when there
    are none.  Rejects an atom already stored or given twice
    (:class:`CompletionOverlap`).  Every added row carries the same
    probability and follows the stored rows, so the order the atoms come in
    moves no bit of an evaluation."""
    atoms = sorted(atoms, key=g.schema.atom_key)
    return g.pdb.with_added(atoms, g.lam) if atoms else g.pdb


def interval_unconstrained(g: OpenPDB, q: UCQ) -> BoundResult:
    """Probability interval without mean constraints: closed world below,
    full completion above, both from one walk that reads each stored row
    once: an :class:`Evaluator` over the two views, whose ends share the
    rows and every separator's partition.  The full completion stays
    symbolic (a view); completed relation blocks are never materialized."""
    lower, upper = Evaluator(g.pdb, LambdaCompletionView(g.pdb, g.lam)).probability(q)
    return BoundResult(
        kind="open_upper",
        value=upper.value,
        interval=(lower.value, upper.value),
        complement_log10=upper.complement_log10,
    )


def budget_from_mtp(g: OpenPDB, c: MTPConstraint, *, denominator: str = "herbrand") -> Budget:
    """Largest number of completion-probability tuples addable to the
    constrained relation while keeping its mean at most the bound.

    ``denominator`` selects what counts as the relation's tuple space:
    ``herbrand`` (default) uses all ground atoms of the relation over the
    domain; ``support`` counts only nonzero-probability tuples of the
    completed relation.
    """
    schema = g.schema
    arity = schema.arity(c.relation)
    mass = g.pdb.relation_mass(c.relation)
    n_open = len(schema.domain) ** arity - g.pdb.relation_size(c.relation)
    lam = g.lam

    if denominator == "herbrand":
        n_total = len(schema.domain) ** arity
        room = c.mean_bound * n_total - mass
        if room <= 0.0:
            return Budget(c.relation, 0, infeasible=True)
        if lam <= 0.0:
            return Budget(c.relation, 0)
        b = math.floor(room / lam + BUDGET_EPSILON)
        return Budget(c.relation, max(0, min(b, n_open)))

    if denominator == "support":
        n0 = g.pdb.support_size(c.relation)

        def ok(b: int) -> bool:
            return mass + b * lam <= c.mean_bound * (n0 + b) + BUDGET_EPSILON

        if not ok(0):
            return Budget(c.relation, 0, infeasible=True)
        if lam <= 0.0:
            return Budget(c.relation, 0)
        if lam <= c.mean_bound:
            # feasibility only improves with b
            return Budget(c.relation, n_open if ok(n_open) else 0)
        b = math.floor((c.mean_bound * n0 - mass + BUDGET_EPSILON) / (lam - c.mean_bound))
        return Budget(c.relation, max(0, min(b, n_open)))

    raise ValueError(f"unknown denominator mode {denominator!r}")


def resolve_budget(
    g: OpenPDB, c: MTPConstraint, budget: int | None, denominator: str
) -> tuple[int, tuple[str, ...]]:
    """The budget an optimizer runs with and its warnings: ``budget`` when
    given, else the derived one, flagged ``infeasible-constraint`` when the
    relation's mass already breaks the bound.  The budget is derived either
    way, so an unknown constrained relation fails whether or not a budget
    is given; a given budget must be non-negative."""
    derived = budget_from_mtp(g, c, denominator=denominator)
    if budget is not None:
        return Budget(c.relation, budget).max_added, ()
    return derived.max_added, ("infeasible-constraint",) if derived.infeasible else ()
