"""Seeded inputs for the benchmark workloads.

Everything here uses only the standard library's ``random`` module, so the
inputs depend on the workload and the seed and nothing else: a change to
owpdb cannot shift them.  Each workload is a list of *rounds*; a round is
a fixed mix of requests, and every round of a workload has the same mix of
operations and input sizes, so any whole number of rounds issues the
operations in the same proportions.  Rounds use distinct instances until
the pool wraps.

A request carries the ``RunConfig`` keyword arguments it is issued with and
the data its reference check needs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import Reference, query_text

WORKLOADS = ("open-world-scan", "budget-opt", "small-random")

LAMBDA = 0.3

# open-world-scan: one large database, a fixed list of hierarchical queries.
SCAN_CONSTANTS = 250
SCAN_QUERIES = (
    [[("S", ("x",)), ("CoA", ("x", "y"))]],
    [[("CoA", ("x", "y")), ("T", ("y",))]],
    [[("S", ("x",)), ("CoA", ("x", "y"))], [("T", ("u",))]],
    [[("S", ("x",)), ("CoA", ("x", "y")), ("T", ("x",))]],
    [[("S", ("x",)), ("T", ("y",))]],
)

# budget-opt: per round, three small instances (exact and greedy at
# B = 2, 3, 4), one large exact instance, and one matching instance.  The
# round ends with its analyze, eval and interval requests issued again, so
# the cheap operations get as many samples as the optimizers leave time for.
BUDGET_SMALL_N = 16
BUDGET_SMALL = (  # (query, budget) per small instance of a round
    ([[("S", ("x",)), ("CoA", ("x", "y"))]], 2),
    ([[("CoA", ("x", "y")), ("T", ("y",))]], 3),
    ([[("S", ("x",)), ("CoA", ("x", "y")), ("T", ("x",))]], 4),
)
BUDGET_LARGE_N = 80
BUDGET_LARGE_B = 8
BUDGET_LARGE_QUERY = [[("S", ("x",)), ("CoA", ("x", "y"))]]
COA_DENSITY = 0.1
MATCH_SIDE = 3
MATCH_EDGES = 6
MATCH_K = 2
BUDGET_ROUNDS = 4

# small-random: tiny instances from fixed pools of query shapes.
SAFE_SHAPES = (
    [[("A", ("x",)), ("B", ("x", "y"))]],
    [[("A", ("x", "y")), ("B", ("y",))]],
    [[("A", ("x",)), ("B", ("x", "y")), ("C", ("x",))]],
    [[("A", ("x", "y", "z")), ("B", ("x", "y")), ("C", ("x",))]],
    [[("A", ("x",)), ("B", ("y",))]],
    [[("A", ("x",)), ("B", ("x", "y"))], [("C", ("u",))]],
    [[("A", ("x", "y"))], [("B", ("u",)), ("C", ("u", "v"))]],
    [[("A", ("x", "y", "z")), ("B", ("x",))]],
)
# Self-join-free and not hierarchical, hence unsafe.
UNSAFE_SHAPES = (
    [[("A", ("x",)), ("B", ("x", "y")), ("C", ("y",))]],
    [[("A", ("x",)), ("B", ("x", "y")), ("C", ("y", "z"))]],
)
ORACLE_SHAPES = (  # B is the constrained relation
    [[("A", ("x",)), ("B", ("x", "y"))]],
    [[("A", ("x",)), ("B", ("x", "y")), ("C", ("x",))]],
    [[("B", ("x", "y")), ("C", ("y",))]],
)
ORACLE_DOMAIN = 3
ORACLE_BUDGET = 2
TINY_ROWS = 4
CHAIN_DOMAIN = 4
SMALL_ROUNDS = 3


@dataclass
class Request:
    """One request: its operation type, the ``RunConfig`` arguments, and
    what its reference check needs."""

    key: str
    op: str
    config: dict
    check: dict = field(default_factory=dict)


@dataclass
class TinyDB:
    """A database as written to disk, kept in memory for the references."""

    domain: list
    arity: dict
    tables: dict
    mtp: tuple | None = None

    def reference(self, default: float = 0.0) -> Reference:
        return Reference(self.domain, self.tables, default)


def write_db(directory: Path, db: TinyDB) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.txt").write_text(
        "".join(f"{p}/{a}\n" for p, a in sorted(db.arity.items()))
    )
    (directory / "domain.txt").write_text("".join(f"{c}\n" for c in db.domain))
    for pred, table in sorted(db.tables.items()):
        (directory / f"{pred}.csv").write_text(
            "".join(",".join(args) + f",{p!r}\n" for args, p in sorted(table.items()))
        )
    lines = [f"lambda={LAMBDA!r}\n"]
    if db.mtp is not None:
        lines.append(f"mtp {db.mtp[0]} {db.mtp[1]!r}\n")
    (directory / "constraints.txt").write_text("".join(lines))


class Draw:
    """The generators' random source.  Which tuples, pairs and hyperedges an
    instance has (``sample``, ``choice``) comes from a stream fixed per
    workload; probabilities (``uniform``) come from a stream seeded with the
    run's seed.  Every seed thus gets instances of the same structure, whose
    cost hardly depends on the probabilities, so two runs differ in the
    values they compute but not in the work they ask for."""

    def __init__(self, workload: str, seed: int):
        self._shape = random.Random(f"{workload}:shape")
        self._value = random.Random(f"{workload}:{seed}")

    def sample(self, population, k):
        return self._shape.sample(population, k)

    def choice(self, seq):
        return self._shape.choice(seq)

    def uniform(self, a, b):
        return self._value.uniform(a, b)


def _table(rng, tuples, count, lo, hi):
    return {t: rng.uniform(lo, hi) for t in sorted(rng.sample(sorted(tuples), count))}


def _all_tuples(domain, arity):
    out = [()]
    for _ in range(arity):
        out = [t + (c,) for t in out for c in domain]
    return out


def _scan_db(rng) -> TinyDB:
    n = SCAN_CONSTANTS
    domain = [f"C{i:03d}" for i in range(n)]
    unary = [(c,) for c in domain]
    s = _table(rng, unary, n // 2, 0.001, 0.01)
    t = _table(rng, unary, n // 2, 0.001, 0.01)
    pairs: set = set()
    while len(pairs) < int(2.5 * n):
        pairs.add((rng.choice(domain), rng.choice(domain)))
    coa = {pair: rng.uniform(0.01, 0.1) for pair in sorted(pairs)}
    return TinyDB(domain, {"S": 1, "T": 1, "CoA": 2}, {"S": s, "T": t, "CoA": coa})


def _budget_db(rng, n, prefix) -> TinyDB:
    domain = [f"{prefix}{i:02d}" for i in range(n)]
    unary = [(c,) for c in domain]
    s = _table(rng, unary, n // 2, 0.1, 0.9)
    t = _table(rng, unary, n // 2, 0.1, 0.9)
    coa = _table(rng, _all_tuples(domain, 2), round(COA_DENSITY * n * n), 0.1, 0.9)
    return TinyDB(
        domain, {"S": 1, "T": 1, "CoA": 2}, {"S": s, "T": t, "CoA": coa}, mtp=("CoA", 0.5)
    )


def _tiny_db(rng, shape, d, prefix="D", mtp=None) -> TinyDB:
    domain = [f"{prefix}{i}" for i in range(d)]
    arity = {pred: len(args) for cq in shape for pred, args in cq}
    tables = {
        pred: _table(rng, _all_tuples(domain, a), min(d**a, TINY_ROWS), 0.05, 0.95)
        for pred, a in sorted(arity.items())
    }
    return TinyDB(domain, arity, tables, mtp=mtp)


def _chain_db(rng) -> TinyDB:
    """R on every constant, T on all but one, and S on eleven pairs that end
    in T plus every pair that does not: 22 uncertain tuples, 18 of them in
    the query's lineage."""
    domain = [f"D{i}" for i in range(CHAIN_DOMAIN)]
    missing = rng.choice(domain)
    t_dom = [c for c in domain if c != missing]
    r = _table(rng, [(c,) for c in domain], len(domain), 0.1, 0.9)
    t = _table(rng, [(c,) for c in t_dom], len(t_dom), 0.1, 0.9)
    into_t = [(x, y) for x in domain for y in t_dom]
    s = _table(rng, into_t, 11, 0.1, 0.9)
    s.update({(x, missing): rng.uniform(0.1, 0.9) for x in domain})
    return TinyDB(domain, {"R": 1, "S": 2, "T": 1}, {"R": r, "S": s, "T": t})


def _match_instance(rng) -> str:
    xs = [f"X{i + 1}" for i in range(MATCH_SIDE)]
    ys = [f"Y{i + 1}" for i in range(MATCH_SIDE)]
    zs = [f"Z{i + 1}" for i in range(MATCH_SIDE)]
    edges = sorted(rng.sample([(x, y, z) for x in xs for y in ys for z in zs], MATCH_EDGES))
    return "".join(
        [f"X {' '.join(xs)}\n", f"Y {' '.join(ys)}\n", f"Z {' '.join(zs)}\n"]
        + [f"E {x},{y},{z}\n" for x, y, z in edges]
        + [f"k {MATCH_K}\n"]
    )


def _lifted_requests(key, directory, db, ucq, *, safe=True, ground_ref=False):
    """analyze, closed-world eval and interval on one database and query."""
    text = query_text(ucq)
    base = {"db_dir": str(directory), "query": text, "output": "json"}
    check = {"db": db, "ucq": ucq, "dir": str(directory), "ground_ref": ground_ref}
    out = [Request(f"{key}/analyze", "analyze", dict(base, mode="analyze"), {"safe": safe})]
    if safe:
        out.append(Request(f"{key}/eval", "closed", dict(base, mode="eval"), check))
        out.append(Request(f"{key}/interval", "interval", dict(base, mode="interval"), check))
    return out


def _budget_request(key, op, directory, db, ucq, budget, **check):
    """An ``exact``, ``greedy`` or ``oracle`` request at budget ``budget``."""
    config = {
        "db_dir": str(directory),
        "query": query_text(ucq),
        "output": "json",
        "budget_override": budget,
        "mode": op,
    }
    return Request(
        f"{key}/{op}", op, config, dict(db=db, ucq=ucq, budget=budget, dir=str(directory), **check)
    )


def _open_world_scan(rng, root: Path):
    db = _scan_db(rng)
    directory = root / "scan-db"
    write_db(directory, db)
    requests = []
    for i, ucq in enumerate(SCAN_QUERIES):
        requests += _lifted_requests(f"q{i}", directory, db, ucq)
    # the cheap analyze requests first, then eval/interval per query
    requests.sort(key=lambda r: r.op != "analyze")
    return [requests]


def _budget_opt(rng, root: Path):
    rounds = []
    for r in range(BUDGET_ROUNDS):
        requests = []
        lifted = []
        for j, (ucq, budget) in enumerate(BUDGET_SMALL):
            db = _budget_db(rng, BUDGET_SMALL_N, "K")
            directory = root / f"r{r}-small{j}"
            write_db(directory, db)
            key = f"r{r}/small{j}"
            lifted += _lifted_requests(key, directory, db, ucq)
            requests += lifted[-3:]
            requests.append(_budget_request(key, "exact", directory, db, ucq, budget, pair=f"{key}/greedy"))
            requests.append(_budget_request(key, "greedy", directory, db, ucq, budget))
        db = _budget_db(rng, BUDGET_LARGE_N, "K")
        directory = root / f"r{r}-large"
        write_db(directory, db)
        key = f"r{r}/large"
        lifted += _lifted_requests(key, directory, db, BUDGET_LARGE_QUERY)
        requests += lifted[-3:]
        requests.append(_budget_request(key, "exact", directory, db, BUDGET_LARGE_QUERY, BUDGET_LARGE_B))
        path = root / f"r{r}-match.txt"
        path.write_text(_match_instance(rng))
        requests.append(
            Request(f"r{r}/demo3dm", "demo3dm", {"instance": str(path), "mode": "demo3dm", "output": "json"})
        )
        rounds.append(requests + lifted)
    return rounds


def _small_random(rng, root: Path):
    rounds = []
    for r in range(SMALL_ROUNDS):
        requests = []
        for j, shape in enumerate(SAFE_SHAPES):
            db = _tiny_db(rng, shape, 2 + (j + r) % 3)
            directory = root / f"r{r}-safe{j}"
            write_db(directory, db)
            requests += _lifted_requests(f"r{r}/safe{j}", directory, db, shape, ground_ref=True)
        for j, shape in enumerate(UNSAFE_SHAPES):
            db = _tiny_db(rng, shape, 2 + (j + r) % 3)
            directory = root / f"r{r}-unsafe{j}"
            write_db(directory, db)
            requests += _lifted_requests(f"r{r}/unsafe{j}", directory, db, shape, safe=False)
        for j, shape in enumerate(ORACLE_SHAPES):
            db = _tiny_db(rng, shape, ORACLE_DOMAIN, mtp=("B", 0.5))
            directory = root / f"r{r}-oracle{j}"
            write_db(directory, db)
            requests.append(_budget_request(f"r{r}/oracle{j}", "oracle", directory, db, shape, ORACLE_BUDGET))
        db = _chain_db(rng)
        directory = root / f"r{r}-chain"
        write_db(directory, db)
        requests.append(
            Request(
                f"r{r}/chain",
                "ground",
                {"db_dir": str(directory), "query": "R(x), S(x,y), T(y)", "output": "json", "mode": "eval"},
                {"db": db},
            )
        )
        rounds.append(requests)
    return rounds


_BUILDERS = {
    "open-world-scan": _open_world_scan,
    "budget-opt": _budget_opt,
    "small-random": _small_random,
}


def build(workload: str, seed: int, root: Path) -> list[list[Request]]:
    """Generate and write a workload's inputs under ``root``; returns its
    rounds of requests."""
    return _BUILDERS[workload](Draw(workload, seed), Path(root))
