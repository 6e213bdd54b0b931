"""Schemas, tuple-independent probabilistic databases, and read views.

A database maps each predicate to a partial table of ground-argument tuples
with probabilities.  Atoms absent from a table have probability zero under
closed-world reading; an atom stored with probability zero is *pinned* and
is treated as known-false rather than unknown, which matters to the
open-world machinery.

Views (:class:`OverlayView` for conditioning and added tuples,
:class:`LambdaCompletionView` for symbolic full completions) share the
:class:`ProbView` read interface, so evaluation never has to materialize a
completed relation atom by atom, and extending a database never copies its
relations: :meth:`Database.with_added` returns an overlay.

Every view answers two lookups: ``_rows(pred, bound)``, the stored rows of
``pred`` with given constants at given positions, found through a lazy
index per (predicate, bound positions), and ``folds(pred, bound, holes)``,
their log-complements summed per the constants at ``holes``.  A database
caches a whole relation's fold once per ``holes`` (at most 2**arity); an
overlay continues a copy of its base's.  A database loaded from files
validates a relation when a read first reaches it, one built in memory at
construction (see ``_relation``).  Loads of byte-identical files share one
table, and with it the indexes and folds any of them builds
(:mod:`owpdb.dataio`), so no code writes a table's rows once it is built.
Databases and views are immutable once built; concurrent reads are safe: a
table (with its constants), an index or a fold is built locally and
published with one assignment, so a reader sees none or a whole one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import CompletionOverlap, SchemaError, UnknownPredicate
from .probability import fold_log_complements
from .query import Atom, Constant, Term, Variable

# The constants a pattern fixes, as (position, constant name) pairs.
Bound = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Schema:
    """Predicate arities plus an ordered constant domain.

    The domain order is fixed and observable: it drives canonical tuple
    ordering, witness tie-breaking, and dynamic-programming elimination
    order.
    """

    predicates: Mapping[str, int]
    domain: tuple[Constant, ...]

    def __post_init__(self):
        if not self.domain:
            raise SchemaError("domain must be non-empty")
        object.__setattr__(self, "_names", tuple(c.name for c in self.domain))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self._names)})
        if len(self._index) != len(self.domain):
            raise SchemaError("domain contains duplicate constants")
        for pred, arity in self.predicates.items():
            if arity < 1:
                raise SchemaError(f"predicate {pred!r} must have arity >= 1")
        object.__setattr__(self, "predicates", dict(self.predicates))

    def arity(self, pred: str) -> int:
        try:
            return self.predicates[pred]
        except KeyError:
            raise UnknownPredicate(f"predicate {pred!r} is not declared in the schema") from None

    def domain_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"constant {name!r} is not in the domain") from None

    def has_constant(self, name: str) -> bool:
        return name in self._index

    def atom_key(self, atom: Atom) -> tuple:
        """Canonical order on ground atoms: predicate, then domain positions."""
        return (atom.predicate, tuple(self.domain_index(t.name) for t in atom.args))


def _args_names(atom: Atom) -> tuple[str, ...]:
    return tuple(t.name for t in atom.args)


class _Table(dict):
    """One relation's rows, ``args -> value``, filled once and then only
    read, with a lazy index per set of bound positions and fold per grouping."""

    def __init__(self, *args):
        super().__init__(*args)
        self.constants: frozenset[str] = frozenset()  # of a stored relation's rows
        self._by_positions: dict[tuple[int, ...], dict[tuple[str, ...], list]] = {}
        self._folds: dict[tuple[int, ...], dict] = {}  # of all the rows, per holes
        self._stored: dict[tuple[int, ...], dict] = {}  # of all the rows, per holes (ProbView.stored)

    def rows(self, bound: Bound) -> Iterable[tuple[tuple[str, ...], object]]:
        """The rows with the ``bound`` constants, in insertion order."""
        if not bound:
            return self.items()
        positions, key = zip(*bound)
        index = self._by_positions.get(positions)
        if index is None:
            index = {}
            for row in self.items():
                index.setdefault(tuple(map(row[0].__getitem__, positions)), []).append(row)
            self._by_positions[positions] = index
        return index.get(key, ())

    def folds(self, holes: tuple[int, ...]) -> dict:
        if holes not in self._folds:
            self._folds[holes] = fold_log_complements(self.items(), holes)
        return self._folds[holes]


def _relation(schema: Schema, pred: str, names: Collection[tuple[str, ...]], ps: Iterable[object],
              rows: Callable[[], Iterable[tuple]], where: Callable[[object], str]) -> _Table:
    """The table of ``pred`` from its columns of args and probabilities,
    checked for arity, a float probability in [0, 1] (not NaN), no
    duplicate args and constants of the domain.  The checks run on whole
    columns; only when one fails does the row loop below run, over the
    ``(at, args, probability)`` rows of ``rows()``, to build the table or
    name the first bad row by ``where(at)``."""
    arity, domain = schema.arity(pred), schema._index
    try:
        table = _Table(zip(names, map(float, ps)))
        table.constants = frozenset(chain.from_iterable(names))
        if (len(table) == len(names) and set(map(len, names)) <= {arity} and table.constants <= domain.keys()
                and all(map((0.0).__le__, table.values())) and all(map((1.0).__ge__, table.values()))):
            return table
    except (TypeError, ValueError, OverflowError):
        pass
    table = _Table()
    for at, args, p in rows():
        if len(args) != arity:
            raise SchemaError(f"{where(at)}: expected {arity} constants and a probability")
        try:
            value = float(p)
        except (TypeError, ValueError):
            raise SchemaError(f"{where(at)}: bad probability {p!r}") from None
        if args in table:
            raise SchemaError(f"{where(at)}: duplicate tuple {args}")
        for name in args:
            if name not in domain:
                raise SchemaError(f"{where(at)}: constant {name!r} is not in the domain")
        if not 0.0 <= value <= 1.0:
            raise SchemaError(f"{where(at)}: probability {value} outside [0, 1]")
        table[args] = value
    table.constants = frozenset(chain.from_iterable(table))
    return table


class _Relations(dict):
    """``pred -> _Table``, a declared predicate's made by ``read(pred)`` on
    first lookup and published with one assignment; others read empty."""

    def __init__(self, declared: Mapping[str, int], read: Callable[[str], _Table]):
        super().__init__()
        self._declared, self._read = declared, read

    def __missing__(self, pred: str) -> _Table:
        if pred not in self._declared:
            return _Table()
        table = self[pred] = self._read(pred)
        return table


class ProbView:
    """Read interface shared by databases and their derived views."""

    schema: Schema

    def default_prob(self, pred: str) -> float:
        raise NotImplementedError

    def _rows(self, pred: str, bound: Bound) -> Iterable[tuple[tuple[str, ...], float]]:
        """Stored rows of ``pred`` with the ``bound`` constants at their
        positions, in the order of a scan of the relation."""
        raise NotImplementedError

    def folds(self, pred: str, bound: Bound, holes: tuple[int, ...]) -> dict:
        """``_rows(pred, bound)`` folded at ``holes`` (``probability.fold_log_complements``); only read."""
        return fold_log_complements(self._rows(pred, bound), holes)

    def stored(self, pred: str, bound: Bound, holes: tuple[int, ...]) -> dict:
        """``_rows(pred, bound)``'s values keyed by their constants at ``holes``; only read."""
        group = itemgetter(*holes)
        return {group(args): p for args, p in self._rows(pred, bound)}

    def entries(self, pred: str) -> Iterator[tuple[tuple[str, ...], float]]:
        """Explicitly stored rows of ``pred`` (including pinned zeros)."""
        return iter(self._rows(pred, ()))

    def is_explicit(self, pred: str, args: tuple[str, ...]) -> bool:
        raise NotImplementedError

    def prob(self, pred: str, args: tuple[str, ...]) -> float:
        raise NotImplementedError

    def explicit_constants(self, preds: Iterable[str]) -> frozenset[str]:
        """Constants occurring in any explicitly stored row of ``preds``."""
        raise NotImplementedError

    # -- conveniences shared by all views --

    def atom_prob(self, atom: Atom) -> float:
        return self.prob(atom.predicate, _args_names(atom))

    def with_overrides(self, fixed: Mapping[Atom, object]) -> "OverlayView":
        return OverlayView(self, fixed)

    def pattern_entries(
        self, pred: str, pattern: Sequence[Term], bound: Bound | None = None
    ) -> Iterator[tuple[tuple[str, ...], float]]:
        """Stored rows matching a pattern of constants and (possibly
        repeated) variables, in scan order: the lazy per-positions index
        finds the constants, and only a repeated variable is tested.  Given
        the constants as ``bound``, only ``pattern``'s repeated variables are read."""
        if bound is None:
            bound = tuple((i, t.name) for i, t in enumerate(pattern) if type(t) is not Variable)
        # (position, first position of its variable) for a repeated variable
        ties = [(i, j) for i, t in enumerate(pattern) if type(t) is Variable for j in [pattern.index(t)] if j != i]
        rows = self._rows(pred, bound)
        yield from (row for row in rows if all(row[0][i] == row[0][j] for i, j in ties)) if ties else rows

    def pattern_size(self, pred: str, pattern: Sequence[Term]) -> int:
        """Number of ground instances of the pattern over the domain."""
        distinct = {t.name for t in pattern if isinstance(t, Variable)}
        return len(self.schema.domain) ** len(distinct)


class Database(ProbView):
    """A tuple-independent probabilistic database.

    Each ground atom appears at most once; absent atoms carry probability
    zero.  Built in memory from ``relations`` (``pred -> {args: p}``), or
    loaded from files (:func:`owpdb.dataio.load_database`), which passes
    ``read(pred)``, the checked table of a relation not in ``relations``,
    made the first time a read reaches it.  Instances are immutable;
    :meth:`with_added` and :meth:`with_overrides` return
    :class:`OverlayView` views over them.
    """

    def __init__(self, schema: Schema, relations: Mapping[str, Mapping[tuple[str, ...], float]] | None = None,
                 read: Callable[[str], _Table] = lambda pred: _Table()):
        self.schema = schema
        self._rels = _Relations(schema.predicates, read)
        for pred, table in (relations or {}).items():
            rows = partial(zip, table, table, table.values())
            self._rels[pred] = _relation(schema, pred, table.keys(), table.values(), rows, f"{pred}{{}}".format)

    def default_prob(self, pred: str) -> float:
        return 0.0

    def _rows(self, pred: str, bound: Bound) -> Iterable[tuple[tuple[str, ...], float]]:
        return self._rels[pred].rows(bound)

    def folds(self, pred: str, bound: Bound, holes: tuple[int, ...]) -> dict:
        return super().folds(pred, bound, holes) if bound else self._rels[pred].folds(holes)

    def stored(self, pred: str, bound: Bound, holes: tuple[int, ...]) -> dict:
        kept = {} if bound else self._rels[pred]._stored
        return kept[holes] if holes in kept else kept.setdefault(holes, super().stored(pred, bound, holes))

    def is_explicit(self, pred: str, args: tuple[str, ...]) -> bool:
        return args in self._rels[pred]

    def prob(self, pred: str, args: tuple[str, ...]) -> float:
        return self._rels[pred].get(args, 0.0)

    def explicit_constants(self, preds: Iterable[str]) -> frozenset[str]:
        return frozenset().union(*(self._rels[p].constants for p in preds))

    def relation_mass(self, pred: str) -> float:
        return sum(self._rels[pred].values())

    def relation_size(self, pred: str) -> int:
        return len(self._rels[pred])

    def support_size(self, pred: str) -> int:
        """Number of stored rows with nonzero probability."""
        return sum(1 for p in self._rels[pred].values() if p > 0.0)

    def uncertain_atoms(self) -> list[Atom]:
        """Stored atoms with probability strictly between 0 and 1."""
        return [Atom(pred, tuple(map(Constant, args))) for pred in sorted(self.schema.predicates)
                for args, p in sorted(self._rels[pred].items()) if 0.0 < p < 1.0]

    def with_added(self, atoms: Iterable[Atom], p: float) -> "OverlayView":
        """A view with ``atoms`` inserted at probability ``p``.

        Raises :class:`CompletionOverlap` for an atom that is already stored
        or repeated in ``atoms``."""
        added: dict[Atom, float] = {}
        for atom in atoms:
            if atom in added or self.is_explicit(atom.predicate, _args_names(atom)):
                raise CompletionOverlap(f"{atom} is already present")
            added[atom] = p
        return OverlayView(self, added)


class OverlayView(ProbView):
    """A view with specific atoms overridden to fixed truth values or
    probabilities; used for conditioning and for added tuples."""

    def __init__(self, base: ProbView, fixed: Mapping[Atom, object]):
        self.base = base
        self.schema = base.schema
        over: dict[str, _Table] = {}
        for atom, val in fixed.items():
            if not atom.is_ground():
                raise SchemaError(f"override atom must be ground: {atom}")
            args = _args_names(atom)
            arity = self.schema.predicates.get(atom.predicate)
            if len(args) != arity or not all(map(self.schema.has_constant, args)):
                raise SchemaError(f"override atom {atom} does not match the schema")
            p = 1.0 if val is True else 0.0 if val is False else float(val)
            if not 0.0 <= p <= 1.0:
                raise SchemaError(f"override probability {p} outside [0, 1]")
            over.setdefault(atom.predicate, _Table())[args] = p
        self._over = over
        # per predicate, the overridden args that replace a stored row
        self._shadowed = {pred: {a for a in rows if base.is_explicit(pred, a)} for pred, rows in over.items()}

    def default_prob(self, pred: str) -> float:
        return self.base.default_prob(pred)

    def _rows(self, pred: str, bound: Bound) -> Iterable[tuple[tuple[str, ...], float]]:
        base = self.base._rows(pred, bound)
        over = self._over.get(pred)
        if over is None:
            return base
        if self._shadowed[pred]:
            base = (row for row in base if row[0] not in over)
        return chain(base, over.rows(bound))

    def folds(self, pred: str, bound: Bound, holes: tuple[int, ...]) -> dict:
        """The base's fold continued, in a copy, by the override rows; a shadowed pinned zero only leaves its count."""
        over = self._over.get(pred)
        if over is None:
            return self.base.folds(pred, bound, holes)
        shadowed = self._shadowed[pred]
        if shadowed and any(self.base.prob(pred, args) > 0.0 for args in shadowed):
            return super().folds(pred, bound, holes)  # a p > 0 term cannot leave a sum bit for bit
        rows = over.rows(bound)
        folds = fold_log_complements(rows, holes, self.base.folds(pred, bound, holes))
        if shadowed:
            for k, (_, dropped) in fold_log_complements([row for row in rows if row[0] in shadowed], holes).items():
                folds[k] = folds[k][0], folds[k][1] - dropped
        return folds

    def stored(self, pred: str, bound: Bound, holes: tuple[int, ...]) -> dict:
        """The base's map continued, in a copy, by the override rows."""
        stored, over, group = self.base.stored(pred, bound, holes), self._over.get(pred), itemgetter(*holes)
        return stored if over is None else {**stored, **{group(args): p for args, p in over.rows(bound)}}

    def is_explicit(self, pred: str, args: tuple[str, ...]) -> bool:
        return args in self._over.get(pred, {}) or self.base.is_explicit(pred, args)

    def prob(self, pred: str, args: tuple[str, ...]) -> float:
        over = self._over.get(pred)
        if over is not None and args in over:
            return over[args]
        return self.base.prob(pred, args)

    def explicit_constants(self, preds: Iterable[str]) -> frozenset[str]:
        out = set(self.base.explicit_constants(preds))
        for p in preds:
            for args in self._over.get(p, {}):
                out.update(args)
        return frozenset(out)


class LambdaCompletionView(ProbView):
    """The full completion of a database: every absent atom of the completed
    relations carries the completion probability.

    The completed blocks are fully symmetric, so the view stays symbolic:
    lookups fall back to the completion probability and no table of
    domain-size ** arity entries is ever built.
    """

    def __init__(self, base: ProbView, lam: float, relations: Iterable[str] | None = None):
        if not 0.0 <= lam <= 1.0:
            raise SchemaError(f"completion probability {lam} outside [0, 1]")
        self.base = base
        self.schema = base.schema
        self.lam = float(lam)
        self.relations = (
            frozenset(relations) if relations is not None else frozenset(base.schema.predicates)
        )

    def default_prob(self, pred: str) -> float:
        if pred in self.relations:
            return self.lam
        return self.base.default_prob(pred)

    def _rows(self, pred: str, bound: Bound) -> Iterable[tuple[tuple[str, ...], float]]:
        return self.base._rows(pred, bound)

    def is_explicit(self, pred: str, args: tuple[str, ...]) -> bool:
        return self.base.is_explicit(pred, args)

    def prob(self, pred: str, args: tuple[str, ...]) -> float:
        if pred in self.relations and not self.base.is_explicit(pred, args):
            return self.lam
        return self.base.prob(pred, args)

    def explicit_constants(self, preds: Iterable[str]) -> frozenset[str]:
        return self.base.explicit_constants(preds)
