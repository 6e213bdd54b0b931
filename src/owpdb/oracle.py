"""Brute-force budget optimizer, matching reduction, and property suites.

The brute-force optimizer enumerates every completion choice within the
budget and is the arbiter for the exact dynamic program and the greedy
bound.  The 3-dimensional-matching machinery demonstrates why budgeted
upper bounds are hard for some safe queries: on the reduction instances the
optimum is attained exactly by the matchings.

Suites run sequentially with per-suite seeds derived from the run seed, so
a fixed seed reproduces the report byte for byte.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .database import Database, Schema
from .engine import DEFAULT_WORLD_CAP, Evaluator, Plan, prob_ground, prob_lifted
from .errors import CapExceeded, SchemaError, UnsafeQuery
from .exactdp import mtp_upper_exact
from .greedy import greedy_trace, set_query_prob
from .openworld import (
    BoundResult,
    CompletionChoice,
    MTPConstraint,
    OpenPDB,
    apply_completion,
    budget_from_mtp,
    interval_unconstrained,
    open_tuples,
    resolve_budget,
)
from .query import Atom, Constant, UCQ, parse_ucq
from . import randgen

DEFAULT_SUBSET_CAP = 200_000
_TIE_TOL = 1e-12
_GRID_STEPS = 10  # steps from 0 to lam per open tuple in the vertex check


# ---------------------------------------------------------------------------
# Brute-force optimizer
# ---------------------------------------------------------------------------


def _bruteforce_core(
    g: OpenPDB,
    relation: str,
    b_max: int,
    q: UCQ,
    *,
    cap_subsets: int,
    cap_worlds: int,
    keep_ties: bool,
):
    # counted, not listed, so that a refusal builds no candidate
    n = len(g.schema.domain) ** g.schema.arity(relation) - g.pdb.relation_size(relation)
    total = sum(math.comb(n, k) for k in range(0, min(b_max, n) + 1))
    if total > cap_subsets:
        raise CapExceeded(f"{total} completion subsets exceed the cap {cap_subsets}")
    candidates = open_tuples(g, relation)
    try:
        plan = Plan().build(q)
    except (UnsafeQuery, CapExceeded):
        plan = None

    def value_of(subset: Sequence[Atom]) -> float:
        db = apply_completion(g, subset)
        if plan is not None:
            return Evaluator(db, plan=plan).probability(q).value
        return prob_ground(q, db, cap_worlds=cap_worlds)

    schema = g.schema
    best = -1.0
    best_witness: tuple[Atom, ...] = ()
    best_key = None
    ties: list[tuple[float, tuple[Atom, ...]]] = []
    for size in range(0, min(b_max, n) + 1):
        for subset in itertools.combinations(candidates, size):
            v = value_of(subset)
            if v > best:
                best = v
                best_witness, best_key = subset, tuple(schema.atom_key(a) for a in subset)
            elif v == best:
                key = tuple(schema.atom_key(a) for a in subset)
                if key < best_key:
                    best_witness, best_key = subset, key
            if keep_ties:
                ties.append((v, subset))
    if keep_ties:
        ties = [(v, s) for v, s in ties if v >= best - _TIE_TOL]
    return best, best_witness, ties, plan


def mtp_upper_bruteforce(
    g: OpenPDB,
    c: MTPConstraint,
    q: UCQ,
    *,
    budget: int | None = None,
    denominator: str = "herbrand",
    cap_subsets: int = DEFAULT_SUBSET_CAP,
    cap_worlds: int = DEFAULT_WORLD_CAP,
) -> BoundResult:
    """Exact budgeted upper bound by enumerating every completion choice.

    Uses lifted evaluation per choice, or ground evaluation when the query
    is unsafe.  The witness is the lexicographically smallest maximizer in
    canonical atom order.
    """
    b_max, warnings = resolve_budget(g, c, budget, denominator)
    best, witness, _, plan = _bruteforce_core(
        g, c.relation, b_max, q, cap_subsets=cap_subsets, cap_worlds=cap_worlds, keep_ties=False
    )
    if plan is None:
        warnings += ("unsafe-query-ground-evaluation",)
    return BoundResult(
        kind="mtp_oracle",
        value=best,
        witness=CompletionChoice(frozenset(witness)),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# 3-dimensional matching reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeDMInstance:
    """Disjoint node sets, available hyperedges, and a target matching size."""

    x_nodes: tuple[Constant, ...]
    y_nodes: tuple[Constant, ...]
    z_nodes: tuple[Constant, ...]
    hyperedges: frozenset[tuple[Constant, Constant, Constant]]
    k: int

    def __post_init__(self):
        xs, ys, zs = set(self.x_nodes), set(self.y_nodes), set(self.z_nodes)
        if xs & ys or xs & zs or ys & zs:
            raise SchemaError("node sets must be disjoint")
        for (x, y, z) in self.hyperedges:
            if x not in xs or y not in ys or z not in zs:
                raise SchemaError(f"hyperedge ({x}, {y}, {z}) leaves the node sets")
        if not 0 <= self.k <= len(self.hyperedges):
            raise SchemaError("k must be between 0 and the number of hyperedges")
        if self.k > min(len(xs), len(ys), len(zs)):
            raise SchemaError("k must be at most the size of the smallest node set")


def is_matching(edges: Iterable[tuple[Constant, Constant, Constant]]) -> bool:
    """No two triples may agree on any coordinate."""
    edges = list(edges)
    for axis in range(3):
        seen = [e[axis] for e in edges]
        if len(set(seen)) != len(seen):
            return False
    return True


def max_matching_size(inst: ThreeDMInstance) -> int:
    edges = sorted(inst.hyperedges, key=lambda e: tuple(c.name for c in e))

    def grow(i: int, used_x, used_y, used_z) -> int:
        best = 0
        for j in range(i, len(edges)):
            x, y, z = edges[j]
            if x in used_x or y in used_y or z in used_z:
                continue
            best = max(
                best, 1 + grow(j + 1, used_x | {x}, used_y | {y}, used_z | {z})
            )
        return best

    return grow(0, frozenset(), frozenset(), frozenset())


_ARITIES = {"R": 3, "U": 1, "V": 1, "W": 1}


def matching_reduction_query() -> UCQ:
    """The six-way union whose budgeted optimum forces a matching: an edge
    paired with a marked node in each of the three roles, plus every pair of
    marked roles."""
    return parse_ucq("R(x, y, z), U(x) | R(x, y, z), V(y) | R(x, y, z), W(z) | U(x), V(y) | U(x), W(z)"
                     " | V(y), W(z)", _ARITIES)


def _reduction_database(inst: ThreeDMInstance, weight: float) -> Database:
    """The hardness gadget: marked-node tables at ``weight`` on their own
    sets and pinned to zero elsewhere, and an edge relation open (absent)
    exactly on the hyperedges and pinned to zero on every other triple."""
    domain = inst.x_nodes + inst.y_nodes + inst.z_nodes
    rels: dict[str, dict[tuple[str, ...], float]] = {
        pred: {(c.name,): (weight if c in members else 0.0) for c in domain}
        for pred, members in (("U", inst.x_nodes), ("V", inst.y_nodes), ("W", inst.z_nodes))
    }
    rels["R"] = {
        tuple(c.name for c in combo): 0.0
        for combo in itertools.product(domain, repeat=3) if combo not in inst.hyperedges
    }
    return Database(Schema(_ARITIES, domain), rels)


def build_matching_reduction(
    inst: ThreeDMInstance, w: float = 0.8
) -> tuple[OpenPDB, MTPConstraint, UCQ]:
    """Encode a matching instance as a budgeted upper-bound problem.

    The edge relation is open exactly on the hyperedges (all other triples
    pinned false), the marked-node relations are closed, and the mean bound
    is placed strictly between the masses of ``k`` and ``k + 1`` added
    edges, so the derived budget is exactly ``k``.
    """
    if not 0.0 < w < 1.0:
        raise SchemaError("tuple weight must be strictly between 0 and 1")
    db = _reduction_database(inst, w)
    n_total = len(db.schema.domain) ** 3
    mean = (inst.k + 0.5) * w / n_total
    g = OpenPDB(db, w)
    return g, MTPConstraint("R", mean), matching_reduction_query()


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of checking the reduction's promises on one instance."""

    k: int
    budget: int
    has_matching: bool
    max_matching: int
    best_value: float
    matching_value: float
    optimal_choices_are_matchings: bool
    optimum_drops_without_matching: bool
    swap_comparison_ok: bool | None
    ok: bool

    def render(self) -> str:
        lines = [
            f"k={self.k} budget={self.budget} max_matching={self.max_matching}",
            f"best_value={self.best_value!r} matching_value={self.matching_value!r}",
            f"optimal_choices_are_matchings={self.optimal_choices_are_matchings}",
            f"optimum_drops_without_matching={self.optimum_drops_without_matching}",
            f"swap_comparison_ok={self.swap_comparison_ok}",
            f"ok={self.ok}",
        ]
        return "\n".join(lines)


def verify_maxmatch(
    inst: ThreeDMInstance,
    w: float = 0.8,
    *,
    cap_subsets: int = DEFAULT_SUBSET_CAP,
) -> MatchingReport:
    """Check that budgeted optima on the reduction instance behave exactly as
    the matching correspondence promises."""
    g, c, q = build_matching_reduction(inst, w)
    budget = budget_from_mtp(g, c).max_added
    best, _, ties, plan = _bruteforce_core(
        g, "R", budget, q, cap_subsets=cap_subsets, cap_worlds=DEFAULT_WORLD_CAP, keep_ties=True
    )
    mm = max_matching_size(inst)
    has_matching = mm >= inst.k

    def value_with(edges) -> float:
        """The query's value with ``edges`` in the edge relation at ``w``."""
        view = g.pdb.with_overrides({Atom("R", e): w for e in edges})
        return Evaluator(view, plan=plan).probability(q).value

    # Value any k disjoint edges would achieve, from a synthetic matching on
    # the same node sets.
    matching_value = value_with(zip(inst.x_nodes[:inst.k], inst.y_nodes, inst.z_nodes))

    if has_matching:
        optimal_are_matchings = all(is_matching([a.args for a in s]) for v, s in ties)
        agrees = abs(best - matching_value) <= 1e-9
        drops = True
    else:
        optimal_are_matchings = True
        agrees = True
        drops = best < matching_value - 1e-9

    swap_ok: bool | None = None
    if len(inst.x_nodes) >= 2 and len(inst.y_nodes) >= 2 and len(inst.z_nodes) >= 2:
        x1, x2 = inst.x_nodes[0], inst.x_nodes[1]
        y1, y2 = inst.y_nodes[0], inst.y_nodes[1]
        z1, z2 = inst.z_nodes[0], inst.z_nodes[1]
        fresh_x = value_with([(x2, y2, z2), (x1, y1, z1)])
        reused_x = value_with([(x2, y2, z2), (x2, y1, z1)])
        swap_ok = fresh_x > reused_x

    ok = optimal_are_matchings and agrees and drops and (swap_ok is not False)
    return MatchingReport(
        k=inst.k,
        budget=budget,
        has_matching=has_matching,
        max_matching=mm,
        best_value=best,
        matching_value=matching_value,
        optimal_choices_are_matchings=optimal_are_matchings,
        optimum_drops_without_matching=drops,
        swap_comparison_ok=swap_ok,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    trials: int
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def render(self) -> str:
        lines = []
        for s in self.suites:
            lines.append(f"suite={s.name} trials={s.trials} failures={len(s.failures)}")
            for f in s.failures:
                lines.append(f"  {f}")
        return "\n".join(lines)


def _suite_lifted_ground(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t in range(trials):
        _, db, q = randgen.rand_safe_instance(rng)
        pl = prob_lifted(q, db)
        pg = prob_ground(q, db)
        if abs(pl - pg) > 1e-9:
            failures.append(f"trial={t} query={q} lifted={pl!r} ground={pg!r}")
    return failures


def _suite_monotonicity(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t in range(trials):
        schema, db, q = randgen.rand_safe_instance(rng)
        before = prob_lifted(q, db)
        pred = rng.choice(sorted(q.predicates()))
        combo = tuple(rng.choice(schema.domain).name for _ in range(schema.predicates[pred]))
        old = db.prob(pred, combo)
        bump = min(1.0, old + rng.choice((0.1, 0.3, 0.5)))
        atom = Atom(pred, tuple(Constant(a) for a in combo))
        after = prob_lifted(q, db.with_overrides({atom: bump}))
        if after < before - 1e-12:
            failures.append(f"trial={t} query={q} atom={atom} before={before!r} after={after!r}")
    return failures


def _suite_ie_consistency(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t in range(trials):
        _, db, q = randgen.rand_safe_instance(rng)
        normal = prob_lifted(q, db)
        forced = prob_lifted(q, db, force_inclusion_exclusion=True)
        if abs(normal - forced) > 1e-9:
            failures.append(f"trial={t} query={q} normal={normal!r} forced={forced!r}")
    return failures


def _draws(rng: random.Random, trials: int, draw):
    """``trials`` numbered instances of ``draw(rng)``, drawing again when it
    raises :class:`RuntimeError` or returns ``None``."""
    done = 0
    while done < trials:
        try:
            inst = draw(rng)
        except RuntimeError:
            continue
        if inst is not None:
            yield done, inst
            done += 1


def _submodularity_draw(rng: random.Random):
    """A self-join-free budgeted instance with at least two open tuples."""
    g, c, q, _ = randgen.rand_mtp_instance(rng, self_join_free=True)
    opens = open_tuples(g, c.relation)
    return (g, c, q, opens) if len(opens) >= 2 else None


def _suite_submodularity(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t, (g, c, q, opens) in _draws(rng, trials, _submodularity_draw):
        free = rng.choice(opens)
        rest = [a for a in opens if a != free]
        y_size = rng.randint(0, len(rest))
        y = rng.sample(rest, y_size)
        x = [a for a in y if rng.random() < 0.5]
        s_x = set_query_prob(g, q, x)
        s_xe = set_query_prob(g, q, x + [free])
        s_y = set_query_prob(g, q, y)
        s_ye = set_query_prob(g, q, y + [free])
        if (s_xe - s_x) < (s_ye - s_y) - 1e-12:
            failures.append(
                f"trial={t} query={q} rel={c.relation} "
                f"gainX={s_xe - s_x!r} gainY={s_ye - s_y!r}"
            )
    return failures


def _suite_dp_vs_bruteforce(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t, (g, c, q, _) in _draws(rng, trials, partial(randgen.rand_mtp_instance, inversion_free=True)):
        exact = mtp_upper_exact(g, c, q)
        brute = mtp_upper_bruteforce(g, c, q)
        if abs(exact.value - brute.value) > 1e-9:
            failures.append(
                f"trial={t} query={q} rel={c.relation} dp={exact.value!r} brute={brute.value!r}"
            )
        else:
            replay = set_query_prob(g, q, exact.witness.added)
            if abs(replay - exact.value) > 1e-12:
                failures.append(
                    f"trial={t} query={q} witness-replay={replay!r} dp={exact.value!r}"
                )
    return failures


def _suite_greedy_bounds(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t, (g, c, q, _) in _draws(rng, trials, partial(randgen.rand_mtp_instance, self_join_free=True)):
        trace = greedy_trace(g, c, q)
        brute = mtp_upper_bruteforce(g, c, q)
        opt = brute.value
        gains = [gain for _, gain in trace.picks]
        if any(gains[i] < gains[i + 1] - 1e-12 for i in range(len(gains) - 1)):
            failures.append(f"trial={t} query={q} gains not non-increasing: {gains!r}")
        elif not (trace.lower - 1e-9 <= opt <= trace.upper + 1e-9):
            # the upper end is the 1 - 1/e guarantee on greedy's gain solved for opt
            failures.append(
                f"trial={t} query={q} opt={opt!r} outside [{trace.lower!r}, {trace.upper!r}]"
            )
    return failures


def _suite_interval_ordering(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t, (g, c, q, _) in _draws(rng, trials, randgen.rand_mtp_instance):
        interval = interval_unconstrained(g, q)
        brute = mtp_upper_bruteforce(g, c, q)
        lo, hi = interval.interval
        if not (lo - 1e-9 <= brute.value <= hi + 1e-9):
            failures.append(
                f"trial={t} query={q} budgeted={brute.value!r} outside [{lo!r}, {hi!r}]"
            )
    return failures


def _suite_budget_monotonicity(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t, (g, c, _, _) in _draws(rng, trials, randgen.rand_mtp_instance):
        b = budget_from_mtp(g, c).max_added
        higher = MTPConstraint(c.relation, min(1.0, c.mean_bound + 0.05))
        b_higher = budget_from_mtp(g, higher).max_added
        if b_higher < b:
            failures.append(f"trial={t} rel={c.relation} budget drops as bound rises")
    return failures


def vertex_attainment_check(g: OpenPDB, c: MTPConstraint, q: UCQ) -> tuple[bool, str]:
    """Grid-search all fractional completions of the constrained relation
    against the best on-off completion within the derived budget.

    Returns (ok, detail).  ``ok`` requires the fractional optimum to exceed
    the budgeted optimum by at most the completion probability times the
    largest single-tuple gain, and some maximizing grid point to have at
    most one coordinate strictly between 0 and the completion probability.
    """
    lam = g.lam
    opens = open_tuples(g, c.relation)
    n = len(opens)
    if n == 0 or n > 6:
        raise ValueError("vertex check needs 1..6 open tuples")
    budget = budget_from_mtp(g, c).max_added
    n_total = len(g.schema.domain) ** g.schema.arity(c.relation)
    room = c.mean_bound * n_total - g.pdb.relation_mass(c.relation)

    # query probability at each on/off corner of the open tuples, the first tuple's bit leading
    corners = [
        prob_ground(q, g.pdb.with_overrides(dict(zip(opens, bits))))
        for bits in itertools.product((False, True), repeat=n)
    ]

    # each pass folds the leading tuple's on/off pair into its grid steps,
    # placed last, so the grid point with steps s sits at sum(s[i] * place[i])
    steps = range(_GRID_STEPS + 1)
    weights = [(1.0 - p, p) for p in (lam * s / _GRID_STEPS for s in steps)]
    inner = [0 < s < _GRID_STEPS for s in steps]
    values, units, interior = corners, [0], [0]
    for _ in range(n):
        half = len(values) // 2
        values = [w0 * a + w1 * b for a, b in zip(values[:half], values[half:]) for w0, w1 in weights]
        units = [u + s for u in units for s in steps]
        interior = [k + i for k in interior for i in inner]

    fits = [(lam / _GRID_STEPS) * u <= room + 1e-9 for u in range(n * _GRID_STEPS + 1)]
    feasible = list(map(fits.__getitem__, units))
    grid_max = max(itertools.compress(values, feasible), default=None)
    if grid_max is None:
        return True, "no feasible grid point"

    place = [(_GRID_STEPS + 1) ** (n - 1 - i) for i in range(n)]
    budget_best = max(
        values[_GRID_STEPS * sum(p for p, on in zip(place, bits) if on)]
        for bits in itertools.product((False, True), repeat=n) if sum(bits) <= budget
    )
    single_gains = [values[_GRID_STEPS * p] - corners[0] for p in place]
    slack = lam * max(single_gains + [0.0]) + 1e-9
    min_interior = min(k for v, k in itertools.compress(zip(values, interior), feasible) if v >= grid_max - _TIE_TOL)

    ok = grid_max <= budget_best + slack and min_interior <= 1
    detail = (
        f"grid_max={grid_max!r} budget_best={budget_best!r} slack={slack!r} "
        f"min_interior={min_interior}"
    )
    return ok, detail


def _suite_vertex_attainment(rng: random.Random, trials: int) -> list[str]:
    failures = []
    for t, (g, c, q) in _draws(rng, trials, rand_vertex_instance):
        ok, detail = vertex_attainment_check(g, c, q)
        if not ok:
            failures.append(f"trial={t} query={q} rel={c.relation} {detail}")
    return failures


def rand_vertex_instance(rng: random.Random):
    """A small instance whose mean bound leaves room for an exact multiple of
    the completion probability, as the on-off characterization expects, or
    ``None`` when the draw does not fit."""
    g, c, q, target_b = randgen.rand_mtp_instance(rng, max_open=6, max_budget=3, self_join_free=True)
    opens = open_tuples(g, c.relation)
    if not 1 <= len(opens) <= 6 or g.lam <= 0.0:
        return None
    uncertain = len(g.pdb.uncertain_atoms())
    if uncertain + len(opens) > 16:
        return None
    n_total = len(g.schema.domain) ** g.schema.arity(c.relation)
    mass = g.pdb.relation_mass(c.relation)
    mean = (mass + target_b * g.lam) / n_total  # room is exactly target_b steps
    if not 0.0 < mean <= 1.0:
        return None
    return g, MTPConstraint(c.relation, mean), q


_SUITES = (
    ("lifted_ground_equivalence", _suite_lifted_ground),
    ("monotonicity", _suite_monotonicity),
    ("inclusion_exclusion_consistency", _suite_ie_consistency),
    ("submodularity", _suite_submodularity),
    ("vertex_attainment", _suite_vertex_attainment),
    ("dp_vs_bruteforce", _suite_dp_vs_bruteforce),
    ("greedy_bounds", _suite_greedy_bounds),
    ("interval_ordering", _suite_interval_ordering),
    ("budget_monotonicity", _suite_budget_monotonicity),
)


def property_suites(seed: int, trials: int) -> PropertyReport:
    """Run every invariant suite with ``trials`` seeded instances each.

    Failures are reported, not raised; a fixed seed yields a byte-identical
    report."""
    if trials <= 0:
        return PropertyReport(seed=seed, trials=0, suites=())
    results = []
    for i, (name, fn) in enumerate(_SUITES):
        rng = random.Random(seed * 7919 + i)
        failures = fn(rng, trials)
        results.append(SuiteResult(name=name, trials=trials, failures=tuple(failures[:3])))
    return PropertyReport(seed=seed, trials=trials, suites=tuple(results))
