"""Command-line front end.

Reads a database directory (schema, domain, relation CSVs, optional
constraints), runs one mode, and emits text or machine-readable JSON.  The
JSON payload always carries the same keys, and with a fixed seed two runs
of the same configuration emit byte-identical output (timings are opt-in
for that reason).

Exit codes: 0 success, 1 parse or validation failure, 2 unsafe query with
no fallback, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import dataio
from .database import Database
from .engine import DEFAULT_WORLD_CAP, Plan, analyze_query, prob_ground, prob_lifted
from .errors import CapExceeded, NotInversionFree, OwpdbError, UnsafeQuery
from .exactdp import mtp_upper_exact
from .greedy import greedy_upper
from .openworld import (
    BoundResult,
    MTPConstraint,
    OpenPDB,
    budget_from_mtp,
    interval_unconstrained,
)
from .oracle import DEFAULT_SUBSET_CAP, mtp_upper_bruteforce, property_suites, verify_maxmatch
from .query import has_self_join

MODES = ("analyze", "eval", "interval", "exact", "greedy", "oracle", "demo3dm", "verify")


@dataclass
class RunConfig:
    """One run: input locations, mode, and resource limits."""

    db_dir: str | None = None
    query: str | None = None
    query_file: str | None = None
    lam: float | None = None
    mtp: tuple[str, float] | None = None
    budget_override: int | None = None
    mode: str = "eval"
    output: str = "text"
    seed: int = 0
    cap_worlds: int = DEFAULT_WORLD_CAP
    cap_subsets: int = DEFAULT_SUBSET_CAP
    force: bool = False
    instance: str | None = None
    trials: int = 25
    mtp_denominator: str = "herbrand"
    timings: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.budget_override is not None and self.budget_override < 0:
            raise ValueError("budget override must be non-negative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


class _ValidationError(Exception):
    pass


def _load_inputs(config: RunConfig):
    if config.db_dir is None:
        raise _ValidationError("--db is required for this mode")
    db = dataio.load_database(config.db_dir)
    file_lam, file_constraints = dataio.load_constraints(config.db_dir)
    lam = config.lam if config.lam is not None else file_lam

    constraint: MTPConstraint | None = None
    if config.mtp is not None:
        constraint = MTPConstraint(*config.mtp)
    elif file_constraints:
        relations = {c.relation for c in file_constraints}
        if len(relations) > 1:
            raise _ValidationError(
                "one constrained relation per run; constraints.txt names "
                + ", ".join(sorted(relations))
            )
        # several bounds on one relation: the tightest (smallest budget) wins
        g_probe = OpenPDB(db, lam)
        constraint = min(
            file_constraints,
            key=lambda c: budget_from_mtp(g_probe, c, denominator=config.mtp_denominator).max_added,
        )

    if config.query is not None and config.query_file is not None:
        raise _ValidationError("give either --query or --query-file, not both")
    text = config.query if config.query_file is None else Path(config.query_file).read_text().strip()
    return db, lam, constraint, None if text is None else Plan().parse(text, db.schema)


def _require(value, message: str):
    if value is None:
        raise _ValidationError(message)
    return value


def _witness_list(db: Database, result: BoundResult) -> list[str]:
    if result.witness is None:
        return []
    return [str(a) for a in result.witness.sorted_atoms(db.schema)]


def _result_payload(db: Database, result: BoundResult | None) -> dict | None:
    if result is None:
        return None
    lower = upper = None
    if result.interval is not None:
        lower, upper = result.interval
    return {
        "kind": result.kind,
        "value": result.value,
        "lower": lower,
        "upper": upper,
        "witness": _witness_list(db, result),
        "complement_log10": result.complement_log10,
        "warnings": list(result.warnings),
    }


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configuration; returns (exit status, rendered report)."""
    started = time.perf_counter()
    payload: dict = {"mode": config.mode,
                     **dict.fromkeys(("query", "lambda", "mtp", "budget", "result", "profile", "report", "timings_ms"))}
    notices: list[str] = []
    db: Database | None = None

    try:
        if config.mode == "demo3dm":
            instance = dataio.load_3dm(_require(config.instance, "--instance is required for demo3dm"))
            lam = config.lam if config.lam is not None else 0.8
            report = verify_maxmatch(instance, lam, cap_subsets=config.cap_subsets)
            payload["lambda"] = lam
            payload["report"] = report.render().splitlines()
        elif config.mode == "verify":
            report = property_suites(config.seed, config.trials)
            payload["report"] = report.render().splitlines()
        else:
            db, lam, constraint, query = _load_inputs(config)
            query = _require(query, "--query or --query-file is required for this mode")
            payload["query"] = str(query)
            payload["lambda"] = lam

            g = OpenPDB(db, lam) if lam is not None else None
            derived_budget = None
            if constraint is not None and g is not None:
                derived_budget = budget_from_mtp(
                    g, constraint, denominator=config.mtp_denominator
                ).max_added
                payload["mtp"] = {
                    "relation": constraint.relation,
                    "mean": constraint.mean_bound,
                    "derived_budget": derived_budget,
                }
            payload["budget"] = config.budget_override if config.budget_override is not None else derived_budget

            result = None
            if config.mode == "analyze":
                profile = analyze_query(query)
                payload["profile"] = {
                    "hierarchical_per_cq": list(profile.hierarchical_per_cq),
                    "inversion_free": profile.inversion_free,
                    "self_join_free": profile.self_join_free,
                    "safe": profile.safe,
                }
            elif config.mode == "eval":
                try:
                    result = BoundResult(kind="closed", value=prob_lifted(query, db))
                except UnsafeQuery:
                    value = prob_ground(query, db, cap_worlds=config.cap_worlds)
                    notices.append("query is unsafe; evaluated by compiling its ground lineage")
                    result = BoundResult(
                        kind="closed", value=value, warnings=("unsafe-query-ground-evaluation",)
                    )
            else:
                _require(lam, "a completion probability (lambda) is required")
                if config.mode == "interval":
                    result = interval_unconstrained(g, query)
                else:
                    c = _require(constraint, f"an mtp constraint is required for {config.mode} mode")
                    budget_args = {"budget": config.budget_override, "denominator": config.mtp_denominator}
                    if config.mode == "exact":
                        try:
                            result = mtp_upper_exact(g, c, query, **budget_args)
                        except NotInversionFree:
                            notices.append("query has an inversion; routed to the greedy bound")
                            result = greedy_upper(g, c, query, **budget_args)
                    elif config.mode == "greedy":
                        if has_self_join(query) and not config.force:
                            raise _ValidationError(
                                "query has a self-join, so the greedy guarantee is unproven; "
                                "pass --force to run anyway"
                            )
                        result = greedy_upper(g, c, query, **budget_args)
                    else:
                        result = mtp_upper_bruteforce(
                            g, c, query, **budget_args, cap_subsets=config.cap_subsets, cap_worlds=config.cap_worlds
                        )
            payload["result"] = _result_payload(db, result)
    except (_ValidationError, OwpdbError, ValueError, OSError) as exc:
        if isinstance(exc, CapExceeded):
            return 3, f"error: {exc}"
        if isinstance(exc, UnsafeQuery):
            return 2, f"error: {exc}"
        return 1, f"error: {exc}"

    if config.timings:
        payload["timings_ms"] = {"total": round((time.perf_counter() - started) * 1000.0, 3)}

    if config.output == "json":
        return 0, json.dumps(payload, sort_keys=True)
    return 0, _render_text(payload, notices)


def _render_text(payload: dict, notices: list[str]) -> str:
    lines = [f"mode: {payload['mode']}"]
    if payload["query"] is not None:
        lines.append(f"query: {payload['query']}")
    if payload["lambda"] is not None:
        lines.append(f"lambda: {payload['lambda']}")
    if payload["mtp"] is not None:
        m = payload["mtp"]
        lines.append(
            f"mtp: {m['relation']} <= {m['mean']} (derived budget {m['derived_budget']})"
        )
    if payload["budget"] is not None:
        lines.append(f"budget: {payload['budget']}")
    for n in notices:
        lines.append(f"notice: {n}")
    profile = payload["profile"]
    if profile is not None:
        lines.append(
            "profile: hierarchical_per_cq="
            + ",".join(str(b) for b in profile["hierarchical_per_cq"])
            + f" inversion_free={profile['inversion_free']}"
            + f" self_join_free={profile['self_join_free']}"
            + f" safe={profile['safe']}"
        )
    result = payload["result"]
    if result is not None:
        lines.append(f"kind: {result['kind']}")
        lines.append(f"value: {result['value']!r}")
        if result["lower"] is not None:
            lines.append(f"interval: [{result['lower']!r}, {result['upper']!r}]")
        if result["complement_log10"] is not None:
            lines.append(f"complement_log10: {result['complement_log10']!r}")
        if result["witness"]:
            lines.append("witness: " + ", ".join(result["witness"]))
        for w in result["warnings"]:
            lines.append(f"warning: {w}")
    if payload["report"] is not None:
        lines.extend(payload["report"])
    if payload["timings_ms"] is not None:
        lines.append(f"timings_ms: {payload['timings_ms']['total']}")
    return "\n".join(lines)


def _parse_mtp(text: str) -> tuple[str, float]:
    rel, sep, mean = text.partition("=")
    if not sep or not rel:
        raise argparse.ArgumentTypeError("expected REL=MEAN")
    try:
        return rel.strip(), float(mean)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad mean bound {mean!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owpdb",
        description="Probabilistic database querying with budgeted open-world completions.",
    )
    parser.add_argument("--db", dest="db_dir", help="database directory")
    parser.add_argument("--query", help="query text")
    parser.add_argument("--query-file", help="file holding the query text")
    parser.add_argument("--lambda", dest="lam", type=float, help="completion probability")
    parser.add_argument("--mtp", type=_parse_mtp, help="mean bound as REL=MEAN")
    parser.add_argument("--budget", dest="budget_override", type=int, help="override the derived budget")
    parser.add_argument("--mode", choices=MODES, default="eval")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap-worlds", dest="cap_worlds", type=int, default=DEFAULT_WORLD_CAP)
    parser.add_argument("--cap-subsets", dest="cap_subsets", type=int, default=DEFAULT_SUBSET_CAP)
    parser.add_argument("--force", action="store_true", help="run greedy despite self-joins")
    parser.add_argument("--instance", help="matching instance file (demo3dm mode)")
    parser.add_argument("--trials", type=int, default=25, help="trials per suite (verify mode)")
    parser.add_argument(
        "--mtp-denominator",
        dest="mtp_denominator",
        choices=("herbrand", "support"),
        default="herbrand",
    )
    parser.add_argument("--timings", action="store_true", help="include timings in the output")
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:  # a refused configuration
        print(f"error: {exc}")
        sys.exit(1)
    status, report = run(config)
    print(report)
    sys.exit(status)


if __name__ == "__main__":
    main()
