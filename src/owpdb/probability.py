"""Complement-aware probability arithmetic.

Every probability carries both its value and the natural log of its
complement.  Independent products and disjunctions accumulate in log space,
so quantities whose complement is far below double-precision resolution
(e.g. 1 - 10**-200) stay exactly representable through long chains of
combinations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

_NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class Prob:
    """A probability as (value, log(1 - value))."""

    value: float
    logc: float

    @staticmethod
    def from_value(p: float) -> "Prob":
        if p >= 1.0:
            return Prob(1.0, _NEG_INF)
        if p <= 0.0:
            return Prob(0.0, 0.0)
        return Prob(p, math.log1p(-p))

    @property
    def complement(self) -> float:
        return math.exp(self.logc)

    @property
    def complement_log10(self) -> float:
        return self.logc / math.log(10.0)

    def _logv(self) -> float:
        """log(value), taken from whichever representation is sharper."""
        if self.value <= 0.0:
            return _NEG_INF
        if self.logc < -0.5:  # value > ~0.39: complement is the sharp side
            return math.log1p(-math.exp(self.logc))
        return math.log(self.value)


CERTAIN = Prob(1.0, _NEG_INF)
IMPOSSIBLE = Prob(0.0, 0.0)


def conj(items: Iterable[Prob]) -> Prob:
    """Probability that independent events all occur.

    The iterable is drained before any short-circuit: every factor must be
    evaluated, because :meth:`owpdb.engine.Evaluator.gradient` reads each
    ``and`` child from the memo while it iterates over that memo."""
    s = 0.0
    for p in list(items):
        lv = p._logv()
        if lv == _NEG_INF:
            s = _NEG_INF
            break
        s += lv
    if s == _NEG_INF:
        return IMPOSSIBLE
    if s == 0.0:
        return CERTAIN
    value = math.exp(s)
    c = -math.expm1(s)  # 1 - exp(s), accurate when s is tiny
    logc = math.log(c) if c > 0.0 else _NEG_INF
    return Prob(value, logc)


def disj(items: Iterable[Prob]) -> Prob:
    """Probability that at least one of the independent events occurs.

    Drains the iterable before short-circuiting, like :func:`conj`."""
    s = 0.0
    for p in list(items):
        if p.logc == _NEG_INF:
            return CERTAIN
        s += p.logc
    if s == 0.0:
        return IMPOSSIBLE
    return Prob(-math.expm1(s), s)


def power_disj(p: Prob, n: int) -> Prob:
    """Disjunction of ``n`` independent copies of the same event."""
    if n == 0:
        return IMPOSSIBLE
    if p.logc == _NEG_INF:
        return CERTAIN
    s = n * p.logc
    if s == 0.0:
        return IMPOSSIBLE
    return Prob(-math.expm1(s), s)


def fold_log_complements(rows: Iterable[tuple], holes: tuple[int, ...], onto: Mapping | None = None) -> dict:
    """Per key, the args of a row at ``holes`` (``None`` without holes): the
    sum of ``log1p(-p)`` over its ``rows`` in order (``-inf`` at 1; a pinned
    zero adds nothing) and their number, continuing a copy of ``onto``."""
    if holes:
        key, groups = itemgetter(*holes), {}
        for args, p in rows:
            groups.setdefault(key(args), []).append(p)
    else:
        groups = {None: [p for _, p in rows]}
    folds = dict(onto or {})
    for k, ps in groups.items():
        s, n = folds.get(k, (0.0, 0))
        for p in ps:
            if p > 0.0:
                s += math.log1p(-p) if p < 1.0 else _NEG_INF
        folds[k] = s, n + len(ps)
    return folds


def mix(p: Prob, hi: Prob, lo: Prob) -> Prob:
    """P(E) from P(A) = ``p``, P(E | A) = ``hi`` and P(E | not A) = ``lo``.
    Value and complement are each a sum of two non-negative terms; the
    complement's is taken in log space."""
    a, b = p._logv() + hi.logc, p.logc + lo.logc
    m = max(a, b)
    if m == _NEG_INF:
        return CERTAIN
    value = min(p.value * hi.value + p.complement * lo.value, 1.0)
    return Prob(value, min(m + math.log1p(math.exp(min(a, b) - m)), 0.0))


def signed_sum(terms: Sequence[tuple[int, Prob]]) -> tuple[Prob, float]:
    """Inclusion-exclusion combination: sum of signed term probabilities.

    The complement is accumulated separately (1 - sum(s) + sum(s * c_i)), so
    precision near 1 survives the cancellation in the value sum.  Returns the
    result clamped into [0, 1] together with the clamp magnitude.
    """
    raw = math.fsum(s * p.value for s, p in terms)
    sign_total = sum(s for s, _ in terms)
    comp = math.fsum([1.0 - sign_total] + [s * math.exp(p.logc) for s, p in terms])
    clamp = max(0.0, -raw, raw - 1.0, -comp, comp - 1.0)
    value = min(max(raw, 0.0), 1.0)
    comp = min(max(comp, 0.0), 1.0)
    if comp == 0.0:
        return Prob(1.0, _NEG_INF), clamp
    if comp < 0.5:
        return Prob(1.0 - comp, math.log(comp)), clamp
    return Prob(value, math.log(comp) if comp < 1.0 else 0.0), clamp
