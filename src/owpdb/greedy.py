"""Greedy approximation of budgeted upper bounds, with a two-sided guarantee.

Adding open tuples to one relation can only raise the probability of a
monotone query, and for safe queries without self-joins the gain of a tuple
shrinks as more tuples are added (the set function is submodular).  The
classic consequence: picking the best tuple ``B`` times lands within a
factor ``1 - 1/e`` of the optimal gain, which brackets the true optimum
between the greedy value and ``(e * p_greedy - p_closed) / (e - 1)``.

A round screens one representative per group of tuples that read the same
screen keys, with one reverse pass over its memo, a batch as one column,
and scores exactly only the one it picks: the first open tuple in canonical
order whose screen is within :data:`WINDOW` of the best
(:func:`greedy_trace`), so results are deterministic.

The window is relative, ``best - WINDOW * |best|``, and sized by the
screen's rounding error.  Each plan level the reverse pass crosses
multiplies an adjoint by values or complements computed to a few ulps
(``eps = 2**-53``, about 1.1e-16), so a product path of ``d`` levels is off
by a relative ``4 * d * eps`` or so, and a complement summed from ``m`` logs
by about ``m * eps * |log complement|``.  An inclusion-exclusion group, at
most ``2**12`` terms under the plan's cap, is off by about ``2**12 * eps``
times the sum of its terms' absolute values.  ``WINDOW = 1e-9`` covers
product paths of a million levels and inclusion-exclusion sums whose
absolute terms outweigh the best gain up to 2000 times; exact ties land in
it whatever the rounding.  A pick within the window gives up at most
``WINDOW * lam`` of gain against the exact best, so the bracket holds up to
``B * WINDOW * lam`` (``e / (e - 1)`` times that at its upper end).  Where
a screen's error exceeds the window (gains near 0 under a wide
inclusion-exclusion), a round gives up at most that error instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import Evaluator, Plan
from .openworld import (
    BoundResult,
    CompletionChoice,
    MTPConstraint,
    OpenPDB,
    apply_completion,
    open_representatives,
    resolve_budget,
)
from .query import Atom, Constant, UCQ, has_self_join

# Relative width of a round's pick window, sized in the module docstring.
WINDOW = 1e-9


def set_query_prob(g: OpenPDB, q: UCQ, x) -> float:
    """Query probability after adding the tuples in ``x`` at the completion
    probability: the set function whose maximization is the budgeted upper
    bound."""
    return Evaluator(apply_completion(g, x)).probability(q).value


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of one greedy run.

    ``lower``/``upper`` bracket the true budgeted optimum and are present
    only when the guarantee applies (no self-joins); ``upper`` may exceed 1,
    so the clamped version is carried alongside.
    """

    picks: tuple[tuple[Atom, float], ...]
    p_closed: float
    p_greedy: float
    lower: float | None
    upper: float | None
    upper_clamped: float | None
    budget: int
    guarantee: bool

    def witness(self) -> CompletionChoice:
        return CompletionChoice(frozenset(a for a, _ in self.picks))


def greedy_trace(
    g: OpenPDB,
    c: MTPConstraint,
    q: UCQ,
    *,
    budget: int | None = None,
    denominator: str = "herbrand",
) -> GreedyTrace:
    """Run the greedy loop and report picks, gains, and bounds.

    Tuples are added one at a time until the budget is spent, the pick's
    gain is zero or the value is 1.0.  P(q) is multilinear in each tuple's
    probability, so a tuple's gain is ``lam`` times the derivative of P(q)
    in its probability (Calinescu, Chekuri, Pal & Vondrak, SIAM J. Comput.
    2011): one reverse pass over the round's evaluation
    (:meth:`Evaluator.gradient`) screens one representative per group of
    tuples that read the same screen keys, streamed from
    :func:`open_representatives` over the round's database, whose stored
    rows include the picks; ``best`` is the largest screen over the groups.
    The round picks the canonically smallest representative whose screen
    is at least ``best - WINDOW * |best|``, which is the first open tuple
    in canonical atom order in that window, and scores only that one
    exactly, as ``lam * (P(q | tuple true) - P(q))`` from a fresh
    evaluator of the database with the tuple true; that is the gain the
    trace reports.  The pick differs from the exact best only when the two
    true gains are within the window, so the bracket holds up to
    ``budget * WINDOW * lam`` (the module docstring sizes the window).  One
    lifted plan serves every evaluation of the run.
    """
    plan = Plan().build(q)
    budget = resolve_budget(g, c, budget, denominator)[0]
    guarantee = not has_self_join(q)

    lam = g.lam
    base = Evaluator(g.pdb, plan=plan)
    p_closed = base.probability(q).value

    picks: list[tuple[Atom, float]] = []
    p_cur = p_closed
    # at 1.0 no gain can be positive: every value is clamped to at most 1
    while lam > 0.0 and len(picks) < budget and p_cur < 1.0:
        screen = base.gradient(q, c.relation)
        # the representatives within the window of the best screen so far, whose floor only rises
        best = floor = -math.inf
        near = []
        for args in open_representatives(base.db, c.relation, screen.reads):
            s = screen(args)
            if s > best:
                best = s
                floor = s - WINDOW * abs(s)
                near = [e for e in near if e[0] >= floor]
            if s >= floor:
                near.append((s, args))
        if not near:
            break
        # a group's representative is its first open tuple, so the smallest
        # one in the window is the first open tuple in the window
        args = min((args for _, args in near), key=lambda args: tuple(map(g.schema.domain_index, args)))
        atom = Atom(c.relation, tuple(map(Constant, args)))
        gain = lam * (Evaluator(base.db.with_overrides({atom: True}), plan=plan).probability(q).value - p_cur)
        if gain <= 0.0:
            break
        picks.append((atom, gain))
        base = Evaluator(apply_completion(g, [a for a, _ in picks]), plan=plan)
        p_cur = base.probability(q).value
    p_greedy = p_cur

    # at least p_greedy: with no gain the formula can round just below it
    upper = max(p_greedy, (math.e * p_greedy - p_closed) / (math.e - 1.0)) if guarantee else None
    return GreedyTrace(
        picks=tuple(picks),
        p_closed=p_closed,
        p_greedy=p_greedy,
        lower=p_greedy if guarantee else None,
        upper=upper,
        upper_clamped=min(1.0, upper) if guarantee else None,
        budget=budget,
        guarantee=guarantee,
    )


def greedy_upper(
    g: OpenPDB,
    c: MTPConstraint,
    q: UCQ,
    *,
    budget: int | None = None,
    denominator: str = "herbrand",
) -> BoundResult:
    """Greedy budgeted upper-bound estimate with its guarantee interval.

    For queries with self-joins the submodularity guarantee is unproven: the
    greedy value is still reported, flagged, and without an interval.
    """
    budget, warnings = resolve_budget(g, c, budget, denominator)
    trace = greedy_trace(g, c, q, budget=budget)
    if not trace.guarantee:
        warnings += ("self-join-no-guarantee",)
    value = trace.p_greedy
    comp_log10 = math.log10(1.0 - value) if value < 1.0 else None
    return BoundResult(
        kind="mtp_greedy",
        value=value,
        interval=(trace.lower, trace.upper_clamped) if trace.guarantee else None,
        witness=trace.witness(),
        complement_log10=comp_log10,
        warnings=warnings,
    )
