"""One run of one workload, in a process of its own.

Sets up the workload's inputs, issues its requests in a closed loop (one
client, the next request after the previous answer) through
``owpdb.cli.run`` for the given number of seconds, checks every answer
against its reference after the clock stops, and prints the run's metrics
as the last line of standard output.

With ``--trace 1`` the run issues its requests twice, first untraced and
then with the tracer installed, and reports per-layer figures from the
traced pass.  ``run.py`` starts this script; see README.md.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from checks import Checker  # noqa: E402

SETUP_REPEATS = 9
# The traced pass stops at the first round boundary past this many spans,
# which bounds the tracer's memory.
SPAN_CAP = 200_000
# Fixed per workload so the statistic is the same on every commit; each
# leaves at least ten requests beyond it in a run of the declared length
# and falls inside a band of similar requests, not between two.  In
# small-random, p99 falls on the numpy-bound chain eval, which the
# calibration kernel tracks worse than interpreter-bound requests (see
# README.md), so its tail is taken at p95.
TAIL_PERCENTILE = {"open-world-scan": 90, "budget-opt": 91, "small-random": 95}
END_TO_END_OPS = ("analyze", "closed", "interval")
OTHER_OPS = ("exact", "greedy", "oracle", "ground", "demo3dm")

# Speed calibration: the CPU speed of a shared host can drift by 2x over
# seconds (measured on a 2-vCPU Intel Xeon VM), so every time is rescaled
# to a reference speed, at which the calibration kernel takes KERNEL_REF_S
# (a round figure near its time on that VM).  About a third of the
# kernel's time is interpreter work and two thirds numpy work, and it
# scales every request and every set-up alike, so a change that moves work
# between the interpreter and numpy is not rescaled differently for it.
KERNEL_REF_S = 2.5e-3
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.25

# A traced request's layer self times must add up to its wall time within
# this much, the cost of entering and leaving its root span.
ACCOUNTING_ABS_S = 0.5e-3
ACCOUNTING_REL = 0.01

# per-layer metric -> (unit, how it is computed from the spans)
LAYER_METRICS = {
    "database.self_s": ("s", "self", "database"),
    "database.pattern_entries.calls": ("count", "calls", "database.ProbView.pattern_entries"),
    "database.pattern_entries.rows": ("count", "rows", "database.ProbView.pattern_entries"),
    "database.pattern_entries.s": ("s", "time", "database.ProbView.pattern_entries"),
    "database.prob.calls": ("count", "calls", "database.Database.prob"),
    "database.with_added.calls": ("count", "calls", "database.Database.with_added"),
    "database.with_added.s": ("s", "time", "database.Database.with_added"),
    "query.self_s": ("s", "self", "query"),
    "query.parse_ucq.s": ("s", "time", "query.parse_ucq"),
    "query.minimize.calls": ("count", "calls", "query.minimize"),
    "query.minimize.s": ("s", "time", "query.minimize"),
    "engine.self_s": ("s", "self", "engine"),
    "engine.conjunction_parts.calls": ("count", "calls", "engine.conjunction_parts"),
    "engine.conjunction_parts.s": ("s", "time", "engine.conjunction_parts"),
    "engine.Evaluator.calls": ("count", "calls", "engine.Evaluator.__init__"),
    "engine.is_safe.calls": ("count", "calls", "engine.is_safe"),
    "engine.is_safe.s": ("s", "time", "engine.is_safe"),
    "engine.prob_ground.s": ("s", "time", "engine.prob_ground"),
    "exactdp.self_s": ("s", "self", "exactdp"),
    "exactdp.mtp_upper_exact.s": ("s", "time", "exactdp.mtp_upper_exact"),
    "greedy.self_s": ("s", "self", "greedy"),
    "greedy.greedy_trace.s": ("s", "time", "greedy.greedy_trace"),
    "openworld.self_s": ("s", "self", "openworld"),
    "openworld.open_tuples.calls": ("count", "calls", "openworld.open_tuples"),
    "openworld.open_tuples.s": ("s", "time", "openworld.open_tuples"),
    "openworld.budget_from_mtp.calls": ("count", "calls", "openworld.budget_from_mtp"),
    "oracle.self_s": ("s", "self", "oracle"),
    "oracle.mtp_upper_bruteforce.s": ("s", "time", "oracle.mtp_upper_bruteforce"),
    "oracle.verify_maxmatch.s": ("s", "time", "oracle.verify_maxmatch"),
    "probability.self_s": ("s", "self", "probability"),
    "probability.calls": ("count", "calls", "probability.conj", "probability.disj",
                          "probability.power_disj", "probability.signed_sum"),
    "dataio.self_s": ("s", "self", "dataio"),
    "dataio.load_database.s": ("s", "time", "dataio.load_database"),
    "cli.self_s": ("s", "self", "cli"),
}


class SetupError(Exception):
    pass


@dataclass(slots=True)
class Record:
    """One issued request: when it started, how long it took (measured, and
    rescaled to the reference speed), and its answer; ``None`` for an answer
    byte-identical to the first one to the same request, so a run's memory
    does not grow with its request count."""

    req: inputs.Request
    start: float
    seconds: float
    status: int
    text: str | None
    ref_seconds: float = 0.0


# -- speed calibration ------------------------------------------------------


def python_kernel() -> int:
    """A fixed piece of interpreter work: tuple keys, dict updates, floats."""
    d: dict = {}
    for i in range(1000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0.0) + math.log1p(-1.0 / (i + 2))
    return len(d)


_WORLDS = np.arange(1 << 16, dtype=np.uint64)


def numpy_kernel() -> float:
    """World enumeration in miniature: mask tests and weight products over
    2**16 worlds."""
    sat = np.zeros(len(_WORLDS), dtype=bool)
    for m in (5, 9, 17):
        mu = np.uint64(m)
        sat |= (_WORLDS & mu) == mu
    weights = np.ones(len(_WORLDS))
    for b in range(3):
        weights *= np.where((_WORLDS >> np.uint64(b)) & np.uint64(1) == np.uint64(1), 0.3, 0.7)
    return float(weights[sat].sum())


def calibration_kernel() -> None:
    for _ in range(3):
        python_kernel()
    numpy_kernel()


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class SpeedProbe:
    """Times the calibration kernel between requests and rescales request
    times by the kernel times taken around them."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        self.kernel_s.append(min(_seconds(calibration_kernel) for _ in range(2)))
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def rescale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed: scaled
        by the median kernel time sampled within CALIBRATION_WINDOW_S of the
        interval, or by the first sample after it if none was."""
        lo = bisect.bisect_left(self.times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + CALIBRATION_WINDOW_S)
        window = self.kernel_s[lo:hi]
        if not window:
            window = [self.kernel_s[min(bisect.bisect_left(self.times, start), len(self.kernel_s) - 1)]]
        return seconds * KERNEL_REF_S / statistics.median(window)


# -- set-up -------------------------------------------------------------------


def import_owpdb():
    """Import owpdb from this checkout's sources; returns (run, RunConfig)."""
    src = ROOT / "src"
    if not (src / "owpdb" / "__init__.py").is_file():
        raise SetupError(f"no owpdb sources under {src}")
    sys.path.insert(0, str(src))
    import owpdb  # noqa: F401
    from owpdb.cli import RunConfig, run

    if not Path(owpdb.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"owpdb imported from {owpdb.__file__}, not from {src}")
    return run, RunConfig


def import_in_fresh_interpreter() -> None:
    """Start a fresh interpreter that imports owpdb, as a user's first
    command does."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import owpdb.cli"
    subprocess.run([sys.executable, "-c", code], check=True)


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Setup:
    """Set-up of a run.  Times SETUP_REPEATS starts of a fresh interpreter
    that imports owpdb, the set-up a user's first command pays: one before
    the requests and the rest spread over the timed loop, so the median
    spans the host's speed spells, not one of them.  Writes the workload's
    inputs at the start and again at the end, and the run fails unless the
    copies are byte-identical.  Writing the inputs is not timed: it is the
    benchmark's own code, which no change to owpdb alters, and on a shared
    disk its time swung tenfold between repeats."""

    def __init__(self, workload: str, seed: int, work: Path, probe: SpeedProbe):
        self.workload, self.seed, self.work, self.probe = workload, seed, work, probe
        self.times: list[float] = []  # at the reference speed
        self.raw: list[float] = []  # as measured
        self.digests: list[str] = []
        self.rounds = None  # the first copy's rounds of requests

    def write_inputs(self) -> None:
        directory = self.work / f"inputs{len(self.digests)}"
        built = inputs.build(self.workload, self.seed, directory)
        self.digests.append(tree_digest(directory))
        self.rounds = self.rounds or built

    def time_import(self) -> None:
        self.probe.sample()
        start = time.perf_counter()
        import_in_fresh_interpreter()
        elapsed = time.perf_counter() - start
        self.probe.sample()
        self.times.append(self.probe.rescale(start, elapsed))
        self.raw.append(elapsed)

    def due(self, elapsed: float, seconds: float) -> bool:
        """Whether the next repeat is due ``elapsed`` seconds into a loop of
        ``seconds``; the last one falls at its end."""
        n = len(self.times)
        return n < SETUP_REPEATS and elapsed >= n * seconds / (SETUP_REPEATS - 1)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)

    @property
    def reproducible(self) -> bool:
        return len(set(self.digests)) == 1


# -- issuing requests ---------------------------------------------------------


def issue(run, RunConfig, requests, probe=None, tracer=None, first_id=0, answers=None) -> list[Record]:
    """Issue requests one at a time.  ``answers`` maps request keys to their
    first answer; a repeated identical answer is not kept again."""
    out = []
    for i, req in enumerate(requests, first_id):
        config = RunConfig(**req.config)
        if probe is not None:
            probe.maybe_sample()
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            status, text = run(config)
        except Exception as exc:  # a crash is a failed request, not a failed run
            status, text = -1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if answers is not None:
            first = answers.setdefault(req.key, text)
            if first is not text and first == text:
                text = None
        out.append(Record(req, start, seconds, status, text))
    return out


def closed_loop(run, RunConfig, rounds, seconds, probe: SpeedProbe, setup: Setup):
    """Whole rounds, cycling through the pool, until ``seconds`` have passed,
    with the remaining timed set-ups between requests (their time is not
    counted); returns the records, rescaled, and the number of rounds."""
    records: list[Record] = []
    answers: dict[str, str] = {}
    start = time.perf_counter()
    paused = 0.0
    r = 0
    while time.perf_counter() - start - paused < seconds:
        for req in rounds[r % len(rounds)]:
            if setup.due(time.perf_counter() - start - paused, seconds):
                t = time.perf_counter()
                setup.time_import()
                paused += time.perf_counter() - t
            records += issue(run, RunConfig, [req], probe, answers=answers)
        r += 1
    while setup.due(seconds, seconds):
        setup.time_import()
    probe.sample()
    for rec in records:
        rec.ref_seconds = probe.rescale(rec.start, rec.seconds)
    return records, r


def traced_pass(tracer, RunConfig, rounds, n_rounds) -> list[Record]:
    """Replay the untraced pass round by round with the tracer installed,
    stopping at a round boundary once SPAN_CAP spans are held."""
    run = sys.modules["owpdb.cli"].run
    records: list[Record] = []
    for r in range(n_rounds):
        records += issue(run, RunConfig, rounds[r % len(rounds)], tracer=tracer, first_id=len(records))
        if len(tracer.spans) >= SPAN_CAP:
            break
    tracer.request = None
    return records


def check_records(records: list[Record], run, RunConfig):
    """Reference-check every answer; returns the number of failed requests
    and their reasons."""
    checker = Checker()
    first: dict[str, str] = {}
    bad: dict[str, str | None] = {}
    failed = 0
    reasons = []
    for rec in records:
        key = rec.req.key
        if key not in first:
            first[key] = rec.text
            if rec.status != 0:
                bad[key] = f"exit {rec.status}: {rec.text[:200]}"
            else:
                bad[key] = checker.check(rec.req, json.loads(rec.text))
        reason = bad[key]
        if reason is None and rec.text is not None and rec.text != first[key]:
            reason = "answer differs from an identical earlier request"
        if reason is not None:
            failed += 1
            reasons.append(f"{key}: {reason}")
    for rec in records:
        key, pair = rec.req.key, rec.req.check.get("pair")
        if rec.req.op == "exact" and pair in bad and bad[key] is None and bad[pair] is None:
            reason = checker.check_pair(key, pair)
            if reason is not None:
                failed += 1
                reasons.append(f"{key}: {reason}")
    # identical requests must give identical bytes; make one repeat if the
    # run made none
    if records and len(first) == len(records):
        (again,) = issue(run, RunConfig, [records[0].req])
        if again.text != records[0].text:
            failed += 1
            reasons.append(f"{records[0].req.key}: repeated request gave different bytes")
    return failed, reasons


# -- metrics ------------------------------------------------------------------


def slot(key: str) -> str:
    """A request's place in its round: the key without its round prefix."""
    head, sep, rest = key.partition("/")
    return rest if sep and head[:1] == "r" and head[1:].isdigit() else key


def typical_latency(records: list[Record], raw: bool = False) -> dict[str, float]:
    """Per operation type, the mean over its request slots of each slot's
    median latency, at the reference speed or, if ``raw``, as measured.
    Every slot weighs the same however often it ran, so the figure does not
    jump between slots of different cost when the number of rounds in a run
    changes."""
    by_slot = defaultdict(list)
    for rec in records:
        by_slot[(rec.req.op, slot(rec.req.key))].append(rec.seconds if raw else rec.ref_seconds)
    medians = defaultdict(list)
    for (op, _), values in by_slot.items():
        medians[op].append(statistics.median(values))
    return {op: statistics.fmean(values) for op, values in medians.items()}


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, records, setup_s, peak_rss_mb):
    typical = typical_latency(records)
    lat = [rec.ref_seconds for rec in records]
    p = TAIL_PERCENTILE[workload]
    beyond = len(lat) - math.ceil(p / 100.0 * len(lat))
    measured = sum(rec.seconds for rec in records)
    print(f"requests={len(lat)} request_time_s={measured:.3f} at_reference_speed_s={sum(lat):.3f} "
          f"tail=p{p} with {beyond} requests beyond it")
    counts = defaultdict(int)
    for rec in records:
        counts[rec.req.op] += 1
    for op in sorted(counts):
        print(f"  {op:9s} n={counts[op]:5d} typical_ms={typical[op] * 1e3:10.3f}")
    out = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "tail_ms": metric(percentile(lat, p) * 1e3, "ms"),
    }
    for op in END_TO_END_OPS:
        out[f"{op}_p50_ms"] = metric(typical[op] * 1e3, "ms")
    return out


def accounting_problems(spans, records: list[Record]) -> list[str]:
    """Traced requests whose layer self times do not add up to the wall time
    measured around the request, up to the cost of entering and leaving its
    ``cli.run`` root span: time that no layer was charged with."""
    self_sum = defaultdict(float)
    roots = {}
    for s in spans:
        self_sum[s.request] += s.self_time
        if s.parent is None:
            roots.setdefault(s.request, s)
    problems = []
    for i, rec in enumerate(records):
        root = roots.get(i)
        if root is None or root.name != "cli.run":
            problems.append(f"request {i} has no cli.run root span")
        elif abs(rec.seconds - self_sum[i]) > ACCOUNTING_ABS_S + ACCOUNTING_REL * rec.seconds:
            problems.append(f"request {i}: layer self times sum to {self_sum[i]!r} s of {rec.seconds!r} s")
    return problems


def per_layer(tracer, records_u: list[Record], records_t: list[Record], probe: SpeedProbe):
    """Per-request layer figures from the traced pass, and the problems
    ``accounting_problems`` finds in it."""
    n = len(records_t)
    self_by_layer = defaultdict(float)
    rows = defaultdict(int)
    inclusive = defaultdict(float)
    for s in tracer.spans:
        self_by_layer[s.layer] += s.self_time
        rows[s.name] += s.rows
        if s.outer:
            inclusive[s.name] += s.busy
    out = {}
    for name, (unit, kind, *spans) in LAYER_METRICS.items():
        if kind == "self":
            total = self_by_layer[spans[0]]
        elif kind == "calls":
            total = sum(tracer.calls[s] for s in spans)
        elif kind == "rows":
            total = rows[spans[0]]
        else:
            total = inclusive[spans[0]]
        out[name] = metric(total / n, unit)
    untraced = sum(rec.seconds for rec in records_u[:n])
    traced = sum(rec.seconds for rec in records_t)
    out["trace.overhead_ratio"] = metric(traced / untraced, "ratio")
    typical = typical_latency(records_u)
    for op in OTHER_OPS:
        out[f"{op}_p50_ms"] = metric(typical.get(op, 0.0) * 1e3, "ms")
    out["speed.kernel_ms"] = metric(statistics.median(probe.kernel_s) * 1e3, "ms")
    wall = typical_latency(records_u, raw=True)
    for op in END_TO_END_OPS + OTHER_OPS:
        out[f"wall.{op}_p50_ms"] = metric(wall.get(op, 0.0) * 1e3, "ms")
    print(f"traced requests={n} spans={len(tracer.spans)} "
          f"layer self time={sum(self_by_layer.values()):.3f}s wall time={traced:.3f}s")
    for layer, t in sorted(self_by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} self {t / n * 1e3:10.3f} ms/request")
    return out, accounting_problems(tracer.spans, records_t)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for generated inputs")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args(argv)

    try:
        run, RunConfig = import_owpdb()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One CPU for this process and the interpreters it starts, so the
    # calibration kernel times the CPU the requests run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    setup = Setup(args.workload, args.seed, Path(args.work), probe)
    setup.write_inputs()
    setup.time_import()
    rounds = setup.rounds
    print(f"workload={args.workload} seed={args.seed} "
          f"rounds_in_pool={len(rounds)} requests_per_round={len(rounds[0])}")

    if args.trace == 0:
        records, _ = closed_loop(run, RunConfig, rounds, args.seconds, probe, setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, reasons = check_records(records, run, RunConfig)
        print(f"setup_s: median of {' '.join(f'{t:.4f}' for t in setup.times)}; raw median {statistics.median(setup.raw):.4f}")
        metrics = end_to_end(args.workload, records, setup.median_s, peak_rss_mb)
        attempted = len(records)
    else:
        import tracer as tracing

        records_u, n_rounds = closed_loop(run, RunConfig, rounds, args.seconds / 2.0, probe, setup)
        failed, reasons = check_records(records_u, run, RunConfig)
        timed = {span for _, kind, *spans in LAYER_METRICS.values() if kind in ("time", "rows") for span in spans}
        tracer = tracing.Tracer(always=timed)
        tracing.install(tracer)
        records_t = traced_pass(tracer, RunConfig, rounds, n_rounds)
        first = {rec.req.key: rec.text for rec in reversed(records_u) if rec.text is not None}
        for rec in records_t:
            if rec.text != first[rec.req.key]:
                failed += 1
                reasons.append(f"{rec.req.key}: traced answer differs from untraced")
        metrics, problems = per_layer(tracer, records_u, records_t, probe)
        reasons += problems
        failed += len(problems)
        attempted = len(records_u) + len(records_t)
        if args.spans:
            tracer.write(args.spans)

    setup.write_inputs()
    for reason in reasons[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    if not setup.reproducible:
        print("FAILED inputs differ between two generations from one seed", file=sys.stderr)
    correct = failed == 0 and setup.reproducible
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
