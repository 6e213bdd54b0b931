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

Loads in one process share what they build: a ``Schema`` is kept under the
SHA-256 digests of the ``schema.txt`` and ``domain.txt`` bytes it was
parsed from, the parsed ``constraints.txt`` under the digest of its bytes,
and a relation's checked table, with the indexes, folds and maps reads
later add to it, under the schema's digests, the predicate and the digest
of its ``<PRED>.csv`` bytes.  A file byte-identical to one already checked
is thus neither parsed nor checked again; any other is, whatever its path,
size or mtime.  The kept entries are bounded (``TABLE_CACHE_ROWS``).
"""
from __future__ import annotations

import csv
import io
import os
import stat
import threading
from collections import OrderedDict
from functools import partial
from pathlib import Path
from typing import Callable, Hashable

from .database import Database, Schema, _relation, _Table
from .errors import SchemaError
from .openworld import MTPConstraint
from .oracle import ThreeDMInstance
from .query import Constant

# The most the kept schemas, constraints and tables weigh together, an entry
# weighing one more than the domain constants, mtp lines or stored rows it holds.
TABLE_CACHE_ROWS = 10**5


class _Shared:
    """Values built from file bytes, kept across loads under their digests:
    least recently used first out once the entries weigh more than ``cap``.
    Each entry is built whole and then published under a lock."""

    def __init__(self, cap: int):
        self.cap, self.held = cap, 0
        self._entries: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, build: Callable[[], object], size: Callable[[object], int]):
        """The value kept under ``key``, else ``build()``'s, kept when it
        weighs at most ``cap``; a ``build`` that raises keeps nothing."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key][0]
        value = build()
        weight = 1 + size(value)
        with self._lock:
            if key in self._entries:  # another thread built it first: share that one
                return self._entries[key][0]
            if weight <= self.cap:
                self._entries[key] = value, weight
                self.held += weight
                while self.held > self.cap:
                    self.held -= self._entries.popitem(last=False)[1][1]
        return value


_SHARED = _Shared(TABLE_CACHE_ROWS)


def _digest(data: bytes) -> bytes:
    import hashlib  # here, not at the top: it loads OpenSSL, which only a load needs

    return hashlib.sha256(data).digest()


def _read(directory: str | Path, name: str) -> bytes | None:
    """The bytes of regular file ``name`` in ``directory``, else None (missing, a directory, a FIFO not waited on)."""
    try:
        fd = os.open(os.path.join(directory, name), os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, NotADirectoryError):
        return None
    try:
        st = os.fstat(fd)
        return b"".join(iter(partial(os.read, fd, st.st_size + 1), b"")) if stat.S_ISREG(st.st_mode) else None
    finally:
        os.close(fd)


def _schema(directory: str | Path) -> tuple[tuple[bytes, bytes], Schema]:
    """The digests of ``schema.txt`` and ``domain.txt`` and the schema they hold."""
    names = "schema.txt", "domain.txt"
    data = tuple(_read(directory, name) for name in names)
    if None in data:
        raise SchemaError(f"missing {Path(directory, names[data.index(None)])}")
    key = tuple(map(_digest, data))
    return key, _SHARED.get(key, partial(_parse_schema, directory, *data), lambda schema: len(schema.domain))


def _parse_schema(directory: str | Path, schema_data: bytes, domain_data: bytes) -> Schema:
    schema_path = Path(directory, "schema.txt")
    preds: dict[str, int] = {}
    for lineno, line in _lines(schema_path, schema_data):
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
    lines = map(str.strip, _text(Path(directory, "domain.txt"), domain_data).splitlines())
    return Schema(preds, tuple(Constant(line) for line in lines if line and line[0] != "#"))


def load_database(directory: str | Path) -> Database:
    """Read ``schema.txt`` and ``domain.txt`` now and each ``<PRED>.csv``
    when a read first reaches ``PRED``, so a request pays only for the
    relations it reads and a bad row fails only a request that reads it.
    Files byte-identical to ones checked before give the schema and tables
    built then (see the module docstring)."""
    key, schema = _schema(directory)

    def read(pred: str) -> _Table:
        if (data := _read(directory, f"{pred}.csv")) is None:
            return _Table()
        return _SHARED.get((key, pred, _digest(data)), partial(_table, schema, pred, directory, data), len)

    return Database(schema, read=read)


def _table(schema: Schema, pred: str, directory: str | Path, data: bytes) -> _Table:
    """The checked table of ``pred`` from ``data``, the bytes of its file in
    ``directory``; the row loop, when a column check fails, reads the same bytes."""
    path = Path(directory, f"{pred}.csv")
    text = _text(path, data, newline="")
    rows = list(filter(None, _csv_records(path, text)))
    ps = list(map(list.pop, rows))
    return _relation(schema, pred, list(map(tuple, rows)), ps, partial(_csv_rows, path, text), f"{path}:{{}}".format)


def _text(path: Path, data: bytes, newline: str | None = None) -> str:
    """The text of ``data``, the bytes of ``path``; an undecodable byte names the file and line."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), newline=newline).read()
    except UnicodeDecodeError as exc:
        lineno = exc.object[:exc.start].count(b"\n") + 1
        raise SchemaError(f"{path}:{lineno}: {exc}") from None


def _lines(path: Path, data: bytes):
    """The numbered, stripped lines of ``data``, the bytes of ``path``, blank and ``#`` lines left out."""
    for lineno, raw in enumerate(_text(path, data).splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _csv_records(path: Path, text: str) -> list[list[str]]:
    """The records of ``text``, read from ``path``, as the ``csv`` module's
    excel dialect reads them, a blank line as ``[]``; a malformed one names
    the file and line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def _csv_rows(path: Path, text: str) -> list[tuple[int, tuple[str, ...], str]]:
    """The (row number, stripped constants, probability text) rows of a
    relation file's ``text``, blank and whitespace-only lines left out, for
    the row loop."""
    return [(rowno, tuple(map(str.strip, row[:-1])), row[-1])
            for rowno, row in enumerate(_csv_records(path, text), 1) if row and (len(row) > 1 or row[0].strip())]


def load_constraints(directory: str | Path) -> tuple[float | None, tuple[MTPConstraint, ...]]:
    """Read ``constraints.txt``: (lambda, constraints), kept under the digest
    of its bytes, or (None, ()) when the file is absent."""
    if (data := _read(directory, "constraints.txt")) is None:
        return None, ()
    return _SHARED.get(_digest(data), partial(_parse_constraints, directory, data), lambda kept: len(kept[1]))


def _parse_constraints(directory: str | Path, data: bytes) -> tuple[float, tuple[MTPConstraint, ...]]:
    path = Path(directory, "constraints.txt")
    lam: float | None = None
    constraints: list[MTPConstraint] = []
    for lineno, line in _lines(path, data):
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
    return lam, tuple(constraints)


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
    for lineno, line in _lines(path, path.read_bytes()):
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
