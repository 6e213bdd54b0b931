"""Scaling rows of the exact DP: wall time, peak memory, answers and work counts.

Usage::

    python3 tools/scaling.py run --label NAME --out FILE [--src DIR]
    python3 tools/scaling.py compare FILE BEFORE AFTER

``run`` measures every row, each in its own subprocess, which imports
``owpdb`` from ``--src`` (default: this checkout's ``src``), so two trees
are measured with the same rows and the same instances.  Per row the
subprocess builds the instance (not timed), runs ``mtp_upper_exact`` three
times and records the median wall time, its own peak RSS and the ``repr``
of the value and of the witness's atoms; a fourth run, under wrappers set
here and not in ``src``, counts the solver's ``_combine`` calls, the
witness merges (``exactdp._merge``) and the closed evaluator's
node-by-node ``_lift`` calls.  A row that runs past ``TIMEOUT_S`` seconds
is recorded as timed out, never dropped.  The run is stored under ``NAME`` in
``FILE``, next to the runs already there.

``compare`` flags, between two stored runs, every row whose value or
witness changed, every count that rose, every wall time that rose by more
than 20% and every row that timed out only in ``AFTER``; it exits 1 when it
flags anything.  Standard library only; not part of tier-1.
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
COUNTS = ("combine", "merge", "closed_lift")

# Exact DP rows, each on scan_db(n): query, constrained relation, budget.
ROWS = {
    "exact-coa-1000": ("S(x), CoA(x,y)", 1000, "CoA", 8),
    "exact-coa-5000": ("S(x), CoA(x,y)", 5000, "CoA", 8),
    "exact-s-1000": ("S(x), CoA(x,y)", 1000, "S", 8),
    "exact-s-5000": ("S(x), CoA(x,y)", 5000, "S", 8),
    "nested-w-200": ("S(x), CoA(x,y), W(x,y)", 200, "W", 4),
    "nested-w-400": ("S(x), CoA(x,y), W(x,y)", 400, "W", 4),
}
LAMBDA, MEAN, SEED = 0.3, 0.9, 1


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


def measure(name: str) -> dict:
    """One row, in this process: see the module docstring."""
    import resource

    from owpdb import engine, exactdp
    from owpdb.openworld import MTPConstraint, OpenPDB
    from owpdb.query import parse_ucq

    text, n, rel, budget = ROWS[name]
    db = scan_db(n)
    g, c, q = OpenPDB(db, LAMBDA), MTPConstraint(rel, MEAN), parse_ucq(text, db.schema)

    def answer() -> tuple[str, str]:
        res = exactdp.mtp_upper_exact(g, c, q, budget=budget)
        return repr(res.value), repr([str(a) for a in res.witness.sorted_atoms(db.schema)])

    times, answers = [], set()
    for _ in range(RUNS):
        start = time.perf_counter()
        answers.add(answer())
        times.append(time.perf_counter() - start)
    counts = dict.fromkeys(COUNTS, 0)
    combine, merge, lift = exactdp._BudgetSolver._combine, exactdp._merge, engine.Evaluator._lift

    def counted_combine(self, *args):
        counts["combine"] += 1
        return combine(self, *args)

    def counted_merge(*args):
        counts["merge"] += 1
        return merge(*args)

    def counted_lift(self, *args):
        counts["closed_lift"] += type(self) is engine.Evaluator
        return lift(self, *args)

    exactdp._BudgetSolver._combine, exactdp._merge, engine.Evaluator._lift = counted_combine, counted_merge, counted_lift
    answers.add(answer())
    if len(answers) != 1:
        raise AssertionError(f"runs disagree: {sorted(answers)}")
    (value, witness), = answers
    return {
        "params": {"query": text, "n": n, "constrained": rel, "budget": budget, "lam": LAMBDA, "seed": SEED},
        "wall_s": statistics.median(times),
        "runs_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "value": value,
        "witness": witness,
        "counts": counts,
    }


def run_rows(src: Path) -> dict:
    out = {}
    for name in ROWS:
        cmd = [sys.executable, __file__, "row", name]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        try:
            child = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
            out[name] = json.loads(child.stdout.splitlines()[-1])
        except subprocess.TimeoutExpired:
            out[name] = {"params": dict(zip(("query", "n", "constrained", "budget"), ROWS[name])),
                         "timeout_s": TIMEOUT_S}
        print(name, json.dumps(out[name]), file=sys.stderr, flush=True)
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
        for key in COUNTS:
            if new["counts"][key] > old["counts"][key]:
                flags.append(f"{name}: {key} count {old['counts'][key]} -> {new['counts'][key]}")
        if new["wall_s"] > (1.0 + TIME_RISE) * old["wall_s"]:
            flags.append(f"{name}: wall {old['wall_s']:.3f} -> {new['wall_s']:.3f} s")
    return flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--label", required=True)
    run.add_argument("--src", type=Path, default=ROOT / "src")
    run.add_argument("--out", type=Path, required=True)
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
    doc["runs"][args.label] = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(), "arch": platform.machine()},
        "rows": run_rows(args.src),
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
