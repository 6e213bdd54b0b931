"""Probabilistic database querying with budgeted open-world completions.

The package evaluates Boolean unions of conjunctive queries over
tuple-independent probabilistic databases, computes open-world probability
intervals, and bounds query probabilities under mean-tuple-probability
budgets: exactly for inversion-free queries, by a guaranteed greedy
approximation for safe self-join-free queries, and by brute force on small
instances.
"""

from .database import Database, Schema
from .engine import analyze_query, is_safe, prob_ground, prob_lifted
from .errors import (
    ArityMismatch,
    CapExceeded,
    CompletionOverlap,
    NotInversionFree,
    OwpdbError,
    ParseError,
    SchemaError,
    UnknownPredicate,
    UnsafeQuery,
)
from .exactdp import mtp_upper_exact
from .greedy import greedy_trace, greedy_upper, set_query_prob
from .openworld import (
    BoundResult,
    Budget,
    CompletionChoice,
    MTPConstraint,
    OpenPDB,
    apply_completion,
    budget_from_mtp,
    interval_unconstrained,
    open_tuples,
)
from .oracle import (
    ThreeDMInstance,
    build_matching_reduction,
    matching_reduction_query,
    mtp_upper_bruteforce,
    property_suites,
    verify_maxmatch,
)
from .query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    QueryProfile,
    UCQ,
    Variable,
    has_self_join,
    is_hierarchical,
    is_inversion_free,
    minimize,
    parse_ucq,
)

__all__ = [
    "Atom",
    "ArityMismatch",
    "BoundResult",
    "Budget",
    "CapExceeded",
    "CompletionChoice",
    "CompletionOverlap",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "MTPConstraint",
    "NotInversionFree",
    "OpenPDB",
    "OwpdbError",
    "ParseError",
    "QueryProfile",
    "Schema",
    "SchemaError",
    "ThreeDMInstance",
    "UCQ",
    "UnknownPredicate",
    "UnsafeQuery",
    "Variable",
    "analyze_query",
    "apply_completion",
    "budget_from_mtp",
    "build_matching_reduction",
    "greedy_trace",
    "greedy_upper",
    "has_self_join",
    "interval_unconstrained",
    "is_hierarchical",
    "is_inversion_free",
    "is_safe",
    "matching_reduction_query",
    "minimize",
    "mtp_upper_bruteforce",
    "mtp_upper_exact",
    "open_tuples",
    "parse_ucq",
    "prob_ground",
    "prob_lifted",
    "property_suites",
    "set_query_prob",
    "verify_maxmatch",
]
