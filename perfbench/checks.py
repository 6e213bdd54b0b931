"""Reference checks, run on each request's JSON answer after timing.

Every check returns ``None`` when the answer is right and a one-line reason
otherwise.  Closed-world, open-world and budgeted values are compared with
the closed forms in :mod:`reference`.  Two checks compare with owpdb's own
independent paths instead, ``prob_ground`` for tiny safe queries and
``mtp_upper_exact`` for the brute-force optimizer, and import owpdb lazily.
"""
from __future__ import annotations

import math
import re

from inputs import LAMBDA
from reference import chain_prob, query_text, value_of

TOL = 1e-9
_ATOM = re.compile(r"^(\w+)\((.*)\)$")


def _close(a, b, tol=TOL) -> bool:
    return a is not None and abs(a - b) <= tol * max(1.0, abs(b))


def _witness(payload, db, pred, budget):
    """Parsed witness rows, or a reason they are not a valid completion."""
    rows = []
    for text in payload["result"]["witness"]:
        m = _ATOM.match(text)
        if not m or m.group(1) != pred:
            return None, f"witness atom {text!r} is not in {pred}"
        args = tuple(a.strip() for a in m.group(2).split(","))
        if args in db.tables.get(pred, {}):
            return None, f"witness atom {text!r} is already stored"
        rows.append(args)
    if len(rows) > budget:
        return None, f"witness has {len(rows)} atoms, budget {budget}"
    return rows, None


class Checker:
    """Checks answers; caches references per database and query."""

    def __init__(self):
        self._refs: dict = {}
        self.answers: dict[str, dict] = {}  # request key -> parsed payload

    def _logc(self, db, ucq, default, added=()):
        key = (id(db), repr(ucq), default, tuple(added))
        if key not in self._refs:
            ref = db.reference(default)
            if added:
                ref = ref.with_added(db.mtp[0], added, LAMBDA)
            self._refs[key] = ref.ucq_logc(ucq)
        return self._refs[key]

    def check(self, request, payload) -> str | None:
        self.answers[request.key] = payload
        return getattr(self, f"_check_{request.op}")(request.check, payload)

    # -- one method per operation type -------------------------------------

    def _check_analyze(self, c, payload):
        if payload["profile"]["safe"] is not c["safe"]:
            return f"analyze says safe={payload['profile']['safe']}, drawn safe={c['safe']}"
        return None

    def _check_closed(self, c, payload):
        res = payload["result"]
        if res["kind"] != "closed" or res["warnings"]:
            return f"safe eval did not run lifted: {res['kind']} {res['warnings']}"
        want = value_of(self._logc(c["db"], c["ucq"], 0.0))
        if not _close(res["value"], want):
            return f"closed value {res['value']!r}, reference {want!r}"
        if c.get("ground_ref"):
            ground = _prob_ground(c)
            if not _close(res["value"], ground):
                return f"closed value {res['value']!r}, prob_ground {ground!r}"
        return None

    def _check_interval(self, c, payload):
        res = payload["result"]
        lo = value_of(self._logc(c["db"], c["ucq"], 0.0))
        logc_hi = self._logc(c["db"], c["ucq"], LAMBDA)
        hi = value_of(logc_hi)
        if not (_close(res["lower"], lo) and _close(res["upper"], hi) and _close(res["value"], hi)):
            return f"interval [{res['lower']!r}, {res['upper']!r}], reference [{lo!r}, {hi!r}]"
        want = logc_hi / math.log(10.0)
        if not _close(res["complement_log10"], want):
            return f"complement_log10 {res['complement_log10']!r}, reference {want!r}"
        return None

    def _budgeted(self, c, payload):
        """Checks shared by every budgeted bound: the witness is a valid
        completion, the value is the witness's closed-form probability and
        lies between the closed value and the full-completion value."""
        db, ucq = c["db"], c["ucq"]
        rows, reason = _witness(payload, db, db.mtp[0], c["budget"])
        if reason:
            return reason
        value = payload["result"]["value"]
        with_witness = value_of(self._logc(db, ucq, 0.0, tuple(sorted(rows))))
        if not _close(value, with_witness):
            return f"value {value!r}, witness gives {with_witness!r}"
        lo = value_of(self._logc(db, ucq, 0.0))
        hi = value_of(self._logc(db, ucq, LAMBDA))
        if not lo - TOL <= value <= hi + TOL:
            return f"value {value!r} outside [closed {lo!r}, open {hi!r}]"
        return None

    _check_exact = _budgeted

    def _check_greedy(self, c, payload):
        reason = self._budgeted(c, payload)
        if reason:
            return reason
        res = payload["result"]
        if res["lower"] is None or res["upper"] is None:
            return "greedy reported no guarantee interval"
        return None

    def check_pair(self, exact_key, greedy_key) -> str | None:
        """The exact optimum lies inside greedy's guarantee interval."""
        exact = self.answers[exact_key]["result"]["value"]
        g = self.answers[greedy_key]["result"]
        if not g["lower"] - TOL <= exact <= g["upper"] + TOL:
            return f"exact {exact!r} outside greedy interval [{g['lower']!r}, {g['upper']!r}]"
        return None

    def _check_oracle(self, c, payload):
        reason = self._budgeted(c, payload)
        if reason:
            return reason
        want = _mtp_upper_exact(c)
        if not _close(payload["result"]["value"], want):
            return f"oracle {payload['result']['value']!r}, mtp_upper_exact {want!r}"
        return None

    def _check_ground(self, c, payload):
        res = payload["result"]
        if "unsafe-query-ground-evaluation" not in res["warnings"]:
            return "unsafe eval did not fall back to world enumeration"
        t = c["db"].tables
        want = chain_prob(c["db"].domain, t["R"], t["S"], t["T"])
        if not _close(res["value"], want):
            return f"ground value {res['value']!r}, reference {want!r}"
        return None

    def _check_demo3dm(self, c, payload):
        if "ok=True" not in payload["report"]:
            return "matching report is not ok: " + "; ".join(payload["report"])
        return None


def _owpdb_inputs(c):
    from owpdb.dataio import load_database
    from owpdb.query import parse_ucq

    db = load_database(c["dir"])
    return db, parse_ucq(query_text(c["ucq"]), db.schema)


def _prob_ground(c) -> float:
    from owpdb.engine import prob_ground

    db, q = _owpdb_inputs(c)
    return prob_ground(q, db)


def _mtp_upper_exact(c) -> float:
    from owpdb.exactdp import mtp_upper_exact
    from owpdb.openworld import MTPConstraint, OpenPDB

    db, q = _owpdb_inputs(c)
    rel, mean = c["db"].mtp
    g = OpenPDB(db, LAMBDA)
    return mtp_upper_exact(g, MTPConstraint(rel, mean), q, budget=c["budget"]).value
