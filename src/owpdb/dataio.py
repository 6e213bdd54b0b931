"""On-disk formats: schema, domain, relation CSVs, constraints, and
matching instances.

A database directory holds ``schema.txt`` (lines ``PRED/arity``),
``domain.txt`` (one constant per line, order significant), and one
``<PRED>.csv`` per predicate with rows ``c1,...,ck,p``, read when a request
first reads ``PRED`` in one pass of the ``csv`` module's excel dialect (so
quoted fields as :func:`save_database` writes them, and any line ends),
blank lines skipped; constants are stripped and the probability text goes
to ``float``.  The domain must be explicit: open-world completion
ranges over every constant, not just the mentioned ones.
``constraints.txt`` holds exactly one ``lambda=<float>`` line and zero or
more ``mtp <PRED> <mean_bound>`` lines.
"""
from __future__ import annotations

import csv
import io
from functools import partial
from pathlib import Path

from .database import Database, Schema
from .errors import SchemaError
from .openworld import MTPConstraint
from .oracle import ThreeDMInstance
from .query import Constant


def load_schema(directory: str | Path) -> Schema:
    directory = Path(directory)
    schema_path = directory / "schema.txt"
    domain_path = directory / "domain.txt"
    for path in (schema_path, domain_path):
        if not path.is_file():
            raise SchemaError(f"missing {path}")
    preds: dict[str, int] = {}
    for lineno, line in _lines(schema_path):
        if "/" not in line:
            raise SchemaError(f"{schema_path}:{lineno}: expected PRED/arity, got {line!r}")
        name, _, arity_text = line.partition("/")
        name = name.strip()
        try:
            arity = int(arity_text.strip())
        except ValueError:
            raise SchemaError(f"{schema_path}:{lineno}: bad arity {arity_text!r}") from None
        if name in preds:
            raise SchemaError(f"{schema_path}:{lineno}: duplicate predicate {name!r}")
        preds[name] = arity
    lines = map(str.strip, _text(domain_path).splitlines())
    return Schema(preds, tuple(Constant(line) for line in lines if line and line[0] != "#"))


def load_database(directory: str | Path) -> Database:
    """Read ``schema.txt`` and ``domain.txt`` now and each ``<PRED>.csv``
    when a read first reaches ``PRED``, so a request pays only for the
    relations it reads and a bad row fails only a request that reads it."""
    directory = Path(directory)

    def read(pred: str):
        # the constants and probability-text columns, each field as read
        path = directory / f"{pred}.csv"
        rows = list(filter(None, _csv_records(path)))
        ps = list(map(list.pop, rows))
        return list(map(tuple, rows)), ps, partial(_csv_rows, path), f"{path}:{{}}".format

    return Database._on_first_read(load_schema(directory), read)


def _text(path: Path, newline: str | None = None) -> str:
    """The text of ``path``; an undecodable byte names the file and line."""
    try:
        with path.open(newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        lineno = exc.object[:exc.start].count(b"\n") + 1
        raise SchemaError(f"{path}:{lineno}: {exc}") from None


def _lines(path: Path):
    """``path``'s numbered, stripped lines, blank and ``#`` lines left out."""
    for lineno, raw in enumerate(_text(path).splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _csv_records(path: Path) -> list[list[str]]:
    """A relation file's records as the ``csv`` module's excel dialect reads
    them, a blank line as ``[]``; a malformed one names the file and line."""
    if not path.is_file():
        return []
    reader = csv.reader(io.StringIO(_text(path, newline=""), newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def _csv_rows(path: Path) -> list[tuple[int, tuple[str, ...], str]]:
    """A relation file's (row number, stripped constants, probability text)
    rows, blank and whitespace-only lines left out, for the row loop."""
    return [(rowno, tuple(map(str.strip, row[:-1])), row[-1])
            for rowno, row in enumerate(_csv_records(path), 1) if row and (len(row) > 1 or row[0].strip())]


def load_constraints(directory: str | Path) -> tuple[float | None, list[MTPConstraint]]:
    """Read ``constraints.txt``; returns (lambda, constraints) or (None, [])
    when the file is absent."""
    path = Path(directory) / "constraints.txt"
    if not path.is_file():
        return None, []
    lam: float | None = None
    constraints: list[MTPConstraint] = []
    for lineno, line in _lines(path):
        try:
            if line.startswith("lambda="):
                if lam is not None:
                    raise SchemaError("lambda given twice")
                lam = float(line.partition("=")[2])
                if not 0.0 <= lam <= 1.0:
                    raise SchemaError(f"completion probability {lam} outside [0, 1]")
            elif line.startswith("mtp "):
                parts = line.split()
                if len(parts) != 3:
                    raise SchemaError("expected 'mtp PRED mean'")
                constraints.append(MTPConstraint(parts[1], float(parts[2])))
            else:
                raise SchemaError(f"unrecognized line {line!r}")
        except (SchemaError, ValueError) as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    if lam is None:
        raise SchemaError(f"{path}: missing lambda=<float> line")
    return lam, constraints


def save_database(db: Database, directory: str | Path) -> None:
    """Write a database directory in the loadable format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    schema = db.schema
    (directory / "schema.txt").write_text(
        "".join(f"{p}/{a}\n" for p, a in sorted(schema.predicates.items()))
    )
    (directory / "domain.txt").write_text("".join(f"{c.name}\n" for c in schema.domain))
    for pred in sorted(schema.predicates):
        rows = sorted(db.entries(pred))
        if not rows:
            continue
        with (directory / f"{pred}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            for args, p in rows:
                writer.writerow(list(args) + [repr(p)])


def load_3dm(path: str | Path) -> ThreeDMInstance:
    """Instance file: ``X a b c`` / ``Y ...`` / ``Z ...`` node lines,
    ``E x,y,z`` per hyperedge, and ``k <int>``."""
    path = Path(path)
    nodes: dict[str, list[Constant]] = {"X": [], "Y": [], "Z": []}
    edges: list[tuple[Constant, Constant, Constant]] = []
    k: int | None = None
    for lineno, line in _lines(path):
        tag, _, rest = line.partition(" ")
        rest = rest.strip()
        if tag in nodes:
            nodes[tag].extend(Constant(t) for t in rest.split())
        elif tag == "E":
            parts = [t.strip() for t in rest.split(",")]
            if len(parts) != 3:
                raise SchemaError(f"{path}:{lineno}: expected 'E x,y,z'")
            edges.append(tuple(Constant(t) for t in parts))
        elif tag == "k":
            try:
                k = int(rest)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
        else:
            raise SchemaError(f"{path}:{lineno}: unrecognized line {line!r}")
    if k is None:
        raise SchemaError(f"{path}: missing 'k <int>' line")
    try:
        return ThreeDMInstance(tuple(nodes["X"]), tuple(nodes["Y"]), tuple(nodes["Z"]), frozenset(edges), k)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
