"""Exception types shared across the package."""


class OwpdbError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OwpdbError):
    """Query text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownPredicate(OwpdbError):
    """A predicate is not declared in the schema."""


class ArityMismatch(OwpdbError):
    """An atom's argument count disagrees with the declared arity."""


class SchemaError(OwpdbError):
    """Invalid schema, domain, or relation data."""


class UnsafeQuery(OwpdbError):
    """Lifted evaluation cannot decompose the query; no polynomial plan exists
    under the implemented rules.  Callers should fall back to ground
    evaluation or approximate bounds."""


class NotInversionFree(OwpdbError):
    """The exact budgeted dynamic program does not apply; route the query to
    the greedy bound or the brute-force oracle instead."""


class CapExceeded(OwpdbError):
    """A resource guard refused the operation (uncertain-tuple count, subset
    count, lineage size, or decomposition width)."""


class CompletionOverlap(OwpdbError):
    """A completion choice includes a tuple already present in the database."""
