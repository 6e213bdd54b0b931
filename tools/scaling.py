"""Scaling rows: wall time, peak memory, answers and work counts.

Usage::

    python3 tools/scaling.py run --label NAME --out FILE [--src DIR]
    python3 tools/scaling.py pair --out FILE --before NAME DIR --after NAME DIR
    python3 tools/scaling.py compare FILE BEFORE AFTER

``run`` measures every row, each in its own subprocess, which imports
``owpdb`` from ``--src`` (default: this checkout's ``src``), so two trees
are measured with the same rows and the same instances.  ``pair`` measures
each row on both trees, each named by its ``src`` directory, in turn: the
``--before`` tree first on the first row, the ``--after`` tree first on the
next, and so on, so load that comes and goes on a shared machine falls on
both trees alike; it stores the two runs as ``run`` would.  Per row the
subprocess builds the instance (not timed), runs it three times and
records the median wall time, its own peak RSS and the ``repr`` of the
answer; a fourth run, on the instance built anew and under wrappers set
here and not in ``src``, counts the row's work.  The rows:

- ``exact-*`` and ``nested-w-*``: ``mtp_upper_exact``, recording the value
  and the witness's atoms and counting the solver's ``_combine``,
  ``_family`` and ``_pareto`` calls, the witness merges
  (``exactdp._merge``) and the closed evaluator's node-by-node ``_lift``
  calls;
- ``greedy-*``: ``greedy_upper``, recording the value and the witness's
  atoms, counting the gradient passes (``Evaluator.gradient`` calls), the
  candidates screened (calls of the screens they return) and the
  node-by-node lifts, and recording the seconds spent inside ``gradient``
  (``gradient_s``) in the counted run;
- ``lifted-*`` and ``interval-*``: ``prob_lifted`` and
  ``interval_unconstrained``, counting the node-by-node lifts, the stored
  rows the database's ``_rows`` returns and the rows handed to
  ``fold_log_complements``, and recording the first run, the one that
  builds the instance's folds and tables, as ``cold_s``;
- ``fixed-*``: the exact and greedy rows on ``fixed_db(n)``, whose rows
  stay on the first 1000 constants as the domain grows;
- ``family-u-*``: the exact row on ``family_db(n)``, whose separator
  leaves an inclusion-exclusion family per constant, so it reaches the
  DP's Pareto fronts;
- ``warm-run``: the open-world-scan round (analyze of five queries, then
  eval and interval of each) through ``cli.run``, ``WARM_ROUNDS`` times
  on one saved database, recording the median round time, a digest of
  the outputs, the relation files parsed (``dataio._csv_records`` calls)
  and the rules derived (``Plan.expand`` calls on a node not yet
  expanded) in the first round (``derive_first``) and in the rounds after
  it (``derive``), and in the rounds after the first the ``os.stat``
  calls (``stat``), the files opened (``open``, audit events) and the
  finished leaf tables built (``finish``: ``ProbView.finished`` calls that
  reach the base method, where the tree has it);
- ``cold-plans``: ``COLD_QUERIES`` distinct random safe queries
  (``owpdb.randgen``, seed ``SEED``) on one saved random database, each
  run once through ``cli.run`` (analyze, eval and interval in turn), on
  emptied plan tables where the tree keeps them: traffic that repeats no
  query, timed ``COLD_RUNS`` times and counting the rules derived.

A row that runs past ``TIMEOUT_S`` seconds is recorded as timed out, never
dropped.  The run is stored under ``NAME`` in ``FILE``, next to the runs
already there.

``compare`` flags, between two stored runs, every row whose value or
witness changed, every count that rose, every row whose fastest run in
``AFTER`` is more than 20% slower than its slowest in ``BEFORE`` (runs that
overlap are noise on a shared box, not a regression), every row whose
``cold_s`` is more than 20% above ``BEFORE``'s, and every row that timed
out only in ``AFTER``; it exits 1 when it flags anything.  Standard
library only; not part of tier-1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 3
TIME_RISE = 0.20
TIMEOUT_S = 300.0

# Per row, on scan_db(n) (fixed_db(n) for a fixed-* row, family_db(n) for a
# family-* row): the kind, the query, n, and for an exact or a greedy row
# the constrained relation and the budget.
COA, NESTED, FAMILY = "S(x), CoA(x,y)", "S(x), CoA(x,y), W(x,y)", "R(x), U(y, x) | S(z, y), U(z, y)"
ROWS = {
    "exact-coa-1000": ("exact", COA, 1000, "CoA", 8),
    "exact-coa-5000": ("exact", COA, 5000, "CoA", 8),
    "exact-s-1000": ("exact", COA, 1000, "S", 8),
    "exact-s-5000": ("exact", COA, 5000, "S", 8),
    "nested-w-200": ("exact", NESTED, 200, "W", 4),
    "nested-w-400": ("exact", NESTED, 400, "W", 4),
    "lifted-coa-1000": ("lifted", COA, 1000),
    "lifted-coa-5000": ("lifted", COA, 5000),
    "interval-coa-1000": ("interval", COA, 1000),
    "interval-coa-5000": ("interval", COA, 5000),
    "lifted-nested-250": ("lifted", NESTED, 250),
    "lifted-nested-1000": ("lifted", NESTED, 1000),
    "interval-nested-250": ("interval", NESTED, 250),
    "interval-nested-1000": ("interval", NESTED, 1000),
    "warm-run": ("warm", None, 250),
    "greedy-coa-1000": ("greedy", COA, 1000, "CoA", 4),
    "greedy-nested-w-200": ("greedy", NESTED, 200, "W", 4),
    "fixed-exact-s-1000": ("exact", COA, 1000, "S", 8),
    "fixed-exact-s-10000": ("exact", COA, 10000, "S", 8),
    "fixed-greedy-coa-1000": ("greedy", COA, 1000, "CoA", 4),
    "fixed-greedy-coa-10000": ("greedy", COA, 10000, "CoA", 4),
    "cold-plans": ("cold", None, None),
    "family-u-32": ("exact", FAMILY, 32, "U", 4),
    "family-u-64": ("exact", FAMILY, 64, "U", 4),
}
LAMBDA, MEAN, SEED = 0.3, 0.9, 1
# The open-world-scan workload's queries, over scan_db's S and CoA and a unary T.
WARM_QUERIES = ("S(x), CoA(x,y)", "CoA(x,y), T(y)", "S(x), CoA(x,y) | T(u)", "S(x), CoA(x,y), T(x)", "S(x), T(y)")
WARM_ROUNDS = 20
COLD_QUERIES, COLD_RUNS = 200, 9
FIXED_CONSTANTS, FIXED_COA = 1000, 2500


def scan_db(n: int, seed: int = SEED):
    """2.5n ``CoA`` rows, ``S`` on about half of the n constants and ``W`` on
    every other ``CoA`` row, each probability uniform in [0.001, 0.009]."""
    from owpdb.database import Database, Schema
    from owpdb.query import Constant

    rng = random.Random(seed)
    names = [f"c{i}" for i in range(n)]
    coa = {}
    while len(coa) < 5 * n // 2:
        coa[(rng.choice(names), rng.choice(names))] = rng.uniform(0.001, 0.009)
    s = {(c,): rng.uniform(0.001, 0.009) for c in names if rng.random() < 0.5}
    w = {pair: rng.uniform(0.001, 0.009) for i, pair in enumerate(coa) if i % 2 == 0}
    schema = Schema({"S": 1, "CoA": 2, "W": 2}, tuple(map(Constant, names)))
    return Database(schema, {"S": s, "CoA": coa, "W": w})


def fixed_db(n: int, seed: int = SEED):
    """``FIXED_COA`` ``CoA`` rows and an ``S`` row per constant among the
    first ``FIXED_CONSTANTS`` of n constants, each probability uniform in
    [0.001, 0.009]: the rows stay as the domain grows."""
    from owpdb.database import Database, Schema
    from owpdb.query import Constant

    rng = random.Random(seed)
    names = [f"c{i}" for i in range(n)]
    stored = names[:FIXED_CONSTANTS]
    coa = {}
    while len(coa) < FIXED_COA:
        coa[(rng.choice(stored), rng.choice(stored))] = rng.uniform(0.001, 0.009)
    s = {(c,): rng.uniform(0.001, 0.009) for c in stored}
    return Database(Schema({"S": 1, "CoA": 2}, tuple(map(Constant, names))), {"S": s, "CoA": coa})


def family_db(n: int, seed: int = SEED):
    """``R`` on two of the n constants, ``S`` at density 0.3 and ``U`` at
    0.2: each separator constant c of ``FAMILY`` leaves a union that needs
    inclusion-exclusion, whose term ``S(z, c), U(z, c)`` has a separator of
    its own."""
    from owpdb.database import Database, Schema
    from owpdb.query import Constant

    rng = random.Random(seed)
    names = [f"K{i:02d}" for i in range(n)]
    return Database(Schema({"R": 1, "S": 2, "U": 2}, tuple(map(Constant, names))),
                    {"R": {(a,): 0.5 for a in names[:2]},
                     "S": {(a, b): 0.5 for a in names for b in names if rng.random() < 0.3},
                     "U": {(a, b): 0.25 for a in names for b in names if rng.random() < 0.2}})


def measure(name: str) -> dict:
    """One row, in this process: see the module docstring."""
    import resource

    kind, text, n, *exact = ROWS[name]
    if kind == "warm":
        row = warm_run(n)
    elif kind == "cold":
        row = cold_plans()
    else:
        row = timed(kind, text, n, *exact, build={"fixed": fixed_db, "family": family_db}.get(name.split("-")[0], scan_db))
    return {**row, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def timed(kind: str, text: str, n: int, rel: str | None = None, budget: int | None = None, *, build=scan_db) -> dict:
    """An exact, greedy, lifted or interval row on ``build(n)``: three timed
    runs, then one counted."""
    from owpdb import database, engine, exactdp, greedy
    from owpdb.openworld import MTPConstraint, OpenPDB, interval_unconstrained
    from owpdb.query import parse_ucq

    params = {"query": text, "n": n, "lam": LAMBDA, "seed": SEED, "db": build.__name__}
    if kind in ("exact", "greedy"):
        params.update(constrained=rel, budget=budget)

    def instance():
        """The row's run on a new ``build(n)``, whose tables have no index or fold yet."""
        db = build(n)
        g, q = OpenPDB(db, LAMBDA), parse_ucq(text, db.schema)
        if kind == "lifted":
            return lambda: (repr(engine.prob_lifted(q, db)), None)
        if kind == "interval":
            return lambda: (repr(interval_unconstrained(g, q)), None)
        c = MTPConstraint(rel, MEAN)

        def answer() -> tuple[str, str]:
            res = (exactdp.mtp_upper_exact if kind == "exact" else greedy.greedy_upper)(g, c, q, budget=budget)
            return repr(res.value), repr([str(a) for a in res.witness.sorted_atoms(db.schema)])
        return answer

    answer, times, answers = instance(), [], set()
    for _ in range(RUNS):
        start = time.perf_counter()
        answers.add(answer())
        times.append(time.perf_counter() - start)
    counts = {"closed_lift": 0}
    lift = engine.Evaluator._lift

    def counted_lift(self, *args):
        counts["closed_lift"] += type(self) is engine.Evaluator
        return lift(self, *args)

    engine.Evaluator._lift = counted_lift
    if kind == "exact":
        counts.update(combine=0, merge=0, family=0, pareto=0)
        solver, merge = exactdp._BudgetSolver, exactdp._merge

        def counted(key, method):
            def call(self, *args):
                counts[key] += 1
                return method(self, *args)
            return call

        def counted_merge(*args):
            counts["merge"] += 1
            return merge(*args)

        for key in ("combine", "family", "pareto"):
            setattr(solver, f"_{key}", counted(key, getattr(solver, f"_{key}")))
        exactdp._merge = counted_merge
    elif kind == "greedy":
        counts.update(gradient=0, screened=0)
        gradient, gradient_s = engine.Evaluator.gradient, [0.0]

        def counted_gradient(self, *args):
            counts["gradient"] += 1
            start = time.perf_counter()
            screen = gradient(self, *args)
            gradient_s[0] += time.perf_counter() - start

            def counted_screen(args):
                counts["screened"] += 1
                return screen(args)
            counted_screen.reads = screen.reads
            return counted_screen

        engine.Evaluator.gradient = counted_gradient
    else:
        counts.update(rows=0, fold_rows=0)
        stored, fold = database.Database._rows, database.fold_log_complements

        def counted_rows(self, pred, bound):
            out = list(stored(self, pred, bound))
            counts["rows"] += len(out)
            return out

        def counted_fold(rows, holes, onto=None):
            rows = list(rows)
            counts["fold_rows"] += len(rows)
            return fold(rows, holes, onto)

        database.Database._rows, database.fold_log_complements = counted_rows, counted_fold
    answers.add(instance()())
    if len(answers) != 1:
        raise AssertionError(f"runs disagree: {sorted(answers)}")
    (value, witness), = answers
    row = {"params": params, "wall_s": statistics.median(times), "runs_s": times,
           "value": value, "witness": witness, "counts": counts}
    if kind == "greedy":
        row["gradient_s"] = gradient_s[0]
    if kind in ("lifted", "interval"):
        row["cold_s"] = times[0]
    return row


def count_derivations(counts: dict, key: str) -> None:
    """Count in ``counts[key]`` the rules derived: ``Plan.expand`` calls on
    a node not yet expanded."""
    from owpdb import engine

    expand = engine.Plan.expand

    def counted_expand(self, node):
        counts[key] += node.rule is None
        return expand(self, node)

    engine.Plan.expand = counted_expand


def empty_plan_tables() -> None:
    """Empty the process-wide plan tables, with the query texts parsed into
    them, and the inversion-free flags kept per query, where the tree has
    them, so the next requests start cold."""
    from owpdb import engine

    getattr(engine, "_TABLES", {}).clear()
    if hasattr(engine, "_inversion_free"):
        engine._inversion_free.cache_clear()


def warm_run(n: int) -> dict:
    """The warm-run row: ``scan_db(n)`` with a unary ``T`` on about half the
    constants, saved, and the open-world-scan round run ``WARM_ROUNDS``
    times through ``cli.run``, counting the relation files parsed and the
    rules derived."""
    import hashlib
    import tempfile

    from owpdb import dataio
    from owpdb.cli import RunConfig, run
    from owpdb.database import Database, ProbView, Schema

    base, rng = scan_db(n), random.Random(SEED)
    rels = {pred: dict(base.entries(pred)) for pred in base.schema.predicates}
    rels["T"] = {(c.name,): rng.uniform(0.001, 0.009) for c in base.schema.domain if rng.random() < 0.5}
    counts = {"parse": 0, "derive_first": 0, "derive": 0, "stat": 0, "open": 0, "finish": 0}
    records, stat = dataio._csv_records, os.stat

    def counted_records(*args):
        counts["parse"] += 1
        return records(*args)

    def counted_stat(*args, **kwargs):
        counts["stat"] += 1
        return stat(*args, **kwargs)

    def counted_opens(event, args):
        counts["open"] += event == "open"

    dataio._csv_records, os.stat = counted_records, counted_stat
    if hasattr(ProbView, "finished"):
        finished = ProbView.finished

        def counted_finished(*args):
            counts["finish"] += 1
            return finished(*args)

        ProbView.finished = counted_finished
    sys.addaudithook(counted_opens)  # this row's process ends with the row
    count_derivations(counts, "derive")
    with tempfile.TemporaryDirectory() as directory:
        dataio.save_database(Database(Schema({**base.schema.predicates, "T": 1}, base.schema.domain), rels), directory)
        Path(directory, "constraints.txt").write_text(f"lambda={LAMBDA!r}\n")
        configs = [RunConfig(db_dir=directory, query=q, mode="analyze", output="json") for q in WARM_QUERIES]
        configs += [RunConfig(db_dir=directory, query=q, mode=mode, output="json")
                    for q in WARM_QUERIES for mode in ("eval", "interval")]
        times, outputs = [], set()
        for i in range(WARM_ROUNDS):
            start = time.perf_counter()
            outputs.add(repr([run(config) for config in configs]))
            times.append(time.perf_counter() - start)
            if i == 0:
                counts.update(derive_first=counts["derive"], derive=0, stat=0, open=0, finish=0)
    if len(outputs) != 1:
        raise AssertionError("rounds disagree")
    return {"params": {"queries": WARM_QUERIES, "n": n, "lam": LAMBDA, "seed": SEED, "rounds": WARM_ROUNDS},
            "wall_s": statistics.median(times), "runs_s": times,
            "value": hashlib.sha256(outputs.pop().encode()).hexdigest(), "witness": None, "counts": counts}


def cold_plans() -> dict:
    """The cold-plans row: ``COLD_QUERIES`` distinct random safe queries on
    one saved random database, each run once through ``cli.run``;
    ``COLD_RUNS`` timed runs, this row being short, and one counted, each
    on emptied plan tables."""
    import hashlib
    import tempfile

    from owpdb import dataio
    from owpdb.cli import RunConfig, run
    from owpdb.randgen import rand_database, rand_safe_ucq, rand_schema

    rng = random.Random(SEED)
    schema = rand_schema(rng, domain_sizes=(4,))
    db = rand_database(rng, schema)
    queries = {}
    while len(queries) < COLD_QUERIES:
        queries.setdefault(str(rand_safe_ucq(rng, schema)), None)
    modes = ("analyze", "eval", "interval")
    counts = {"derive": 0}
    with tempfile.TemporaryDirectory() as directory:
        dataio.save_database(db, directory)
        Path(directory, "constraints.txt").write_text(f"lambda={LAMBDA!r}\n")
        configs = [RunConfig(db_dir=directory, query=q, mode=modes[i % len(modes)], output="json")
                   for i, q in enumerate(queries)]
        times, outputs = [], set()
        for _ in range(COLD_RUNS):
            empty_plan_tables()
            start = time.perf_counter()
            outputs.add(repr([run(config) for config in configs]))
            times.append(time.perf_counter() - start)
        empty_plan_tables()
        count_derivations(counts, "derive")
        outputs.add(repr([run(config) for config in configs]))
    if len(outputs) != 1:
        raise AssertionError("runs disagree")
    return {"params": {"queries": COLD_QUERIES, "modes": modes, "lam": LAMBDA, "seed": SEED},
            "wall_s": statistics.median(times), "runs_s": times,
            "value": hashlib.sha256(outputs.pop().encode()).hexdigest(), "witness": None, "counts": counts}


def run_row(name: str, src: Path) -> dict:
    cmd = [sys.executable, __file__, "row", name]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    try:
        child = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        return json.loads(child.stdout.splitlines()[-1])
    except subprocess.TimeoutExpired:
        return {"params": dict(zip(("kind", "query", "n", "constrained", "budget"), ROWS[name])),
                "timeout_s": TIMEOUT_S}


def run_rows(trees: list[tuple[str, Path]]) -> dict:
    """Every row on every ``(label, src)`` tree, row by row, each row
    starting with the tree after the one the row before started with."""
    out = {label: {} for label, _ in trees}
    for i, name in enumerate(ROWS):
        for label, src in trees[i % len(trees):] + trees[:i % len(trees)]:
            out[label][name] = run_row(name, src)
            print(label, name, json.dumps(out[label][name]), file=sys.stderr, flush=True)
    return out


def compare(before: dict, after: dict) -> list[str]:
    flags = []
    for name, new in after.items():
        old = before.get(name)
        if old is None:
            continue
        if "timeout_s" in new or "timeout_s" in old:
            if "timeout_s" in new and "timeout_s" not in old:
                flags.append(f"{name}: timed out after {new['timeout_s']} s")
            continue
        for key in ("value", "witness"):
            if new[key] != old[key]:
                flags.append(f"{name}: {key} {old[key]} -> {new[key]}")
        for key, count in new["counts"].items():
            if count > old["counts"].get(key, count):
                flags.append(f"{name}: {key} count {old['counts'][key]} -> {count}")
        if min(new["runs_s"]) > (1.0 + TIME_RISE) * max(old["runs_s"]):
            flags.append(f"{name}: wall {max(old['runs_s']):.3f} (slowest) -> {min(new['runs_s']):.3f} s (fastest)")
        if "cold_s" in old and new.get("cold_s", 0.0) > (1.0 + TIME_RISE) * old["cold_s"]:
            flags.append(f"{name}: cold {old['cold_s']:.3f} -> {new['cold_s']:.3f} s")
    return flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--label", required=True)
    run.add_argument("--src", type=Path, default=ROOT / "src")
    run.add_argument("--out", type=Path, required=True)
    pair = sub.add_parser("pair")
    pair.add_argument("--out", type=Path, required=True)
    for side in ("--before", "--after"):
        pair.add_argument(side, nargs=2, metavar=("NAME", "DIR"), required=True)
    cmp = sub.add_parser("compare")
    cmp.add_argument("file", type=Path)
    cmp.add_argument("before")
    cmp.add_argument("after")
    row = sub.add_parser("row")
    row.add_argument("name", choices=ROWS)
    args = ap.parse_args(argv)

    if args.cmd == "row":
        print(json.dumps(measure(args.name)))
        return 0
    if args.cmd == "compare":
        runs = json.loads(args.file.read_text())["runs"]
        flags = compare(runs[args.before]["rows"], runs[args.after]["rows"])
        print("\n".join(flags) or "no row flagged")
        return 1 if flags else 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    trees = ([(args.label, args.src)] if args.cmd == "run"
             else [(label, Path(src)) for label, src in (args.before, args.after)])
    machine = {"python": platform.python_version(), "cpus": os.cpu_count(), "arch": platform.machine()}
    for label, rows in run_rows(trees).items():
        doc["runs"][label] = {"machine": machine, "rows": rows}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
