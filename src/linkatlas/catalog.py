"""Persisted invariant records and the JSONL catalog format.

One record per line, keyed by the canonical form of the link (sorted
exponents for Brieskorn-Pham input, sorted primitive weights plus
degree otherwise); a key in any other form makes its line corrupt
("bad key ...").  Appends are idempotent: a key already present is
skipped.  Malformed lines, and lines that are not valid UTF-8, are
reported with their line number and skipped; they never abort a read.

A null record of a (2n+1)-dimensional link carries the note
"null structure: (lambda, nu) = (-2, 2n+2)", the constants of
eta.null_constants(n); a 1-dimensional link (n = 0) gets no note.

Each catalog filter is defined once, in FILTERS, which record_filter,
catalog_query and the index all read.  Beside the catalog lives that
index, `<catalog>.keys`: a JSON object holding, for every valid record
line in file order, its line number, key and one column per filter; the
corrupt lines (line number and reason); the number of lines the reader
counts; and a stamp of the catalog it describes (crc32, byte length and
last character of the file).  Appends and queries read the whole
catalog once to compute its stamp, and trust the index only when the
stamp matches; else they first rebuild it from every record.  An
append then skips the keys it lists and adds the records it writes; a
query always answers from the index, decoding only the lines whose
indexed fields pass its filters, and validates them again.  Each call
writes the index at most once: an append when it adds records or found
the index stale, a query only when it found it stale.  The
index is a cache: deleting it is always safe, failing to read or write
it is never an error, and a failed write leaves nothing behind.  An
append holds an exclusive `flock` on the catalog from computing the
stamp until the index is written, so two appends cannot both add one
key; a query holds a shared one from the stamp until its last line is
read and any index it writes is in place, so it never sees half a batch.
"""

from __future__ import annotations

import fcntl
import json
import os
import zlib
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from math import prod
from operator import attrgetter
from typing import Callable, Container, Iterable

from .betti import (
    TORSION_FREE,
    TORSION_UNKNOWN,
    betti,
    betti_cost,
    torsion_closed_form,
)
from .errors import AtlasError, InconsistentInvariants
from .eta import null_constants
from .links import (
    BPExponents,
    SignClass,
    WeightSystem,
    bp_link,
    canonical_key,
    classify_sign,
    is_well_formed,
    key_nvars,
    parse_link as parse_key,
)
from .spheres import (
    BP8_ORDER,
    SIGNATURE_NVARS,
    SPHERE_KINDS,
    SphereVerdict,
    brieskorn_signature,
    signature_cost,
    sphere_verdict,
)

TOOL_VERSION = "0.1.0"

_SIGNS = tuple(s.value for s in SignClass)


def _is_canonical(key: str) -> bool:
    """Whether key parses and is the canonical key of what it parses to."""
    try:
        return canonical_key(parse_key(key)) == key
    except AtlasError:
        return False


@dataclass(frozen=True)
class InvariantRecord:
    key: str
    sign: str
    middle_betti: int
    torsion: str
    sphere: SphereVerdict
    signature: int | None = None
    constants_note: str | None = None
    tool_version: str = TOOL_VERSION
    timestamp: str | None = None

    def to_json(self) -> dict:
        return {**vars(self), "sphere": dict(vars(self.sphere))}

    @classmethod
    def from_json(cls, obj: dict) -> "InvariantRecord":
        if not isinstance(obj, dict):
            raise ValueError("record must be an object")
        try:
            key = obj["key"]
            sign = obj["sign"]
            mb = obj["middle_betti"]
            torsion = obj["torsion"]
            sphere = obj["sphere"]
        except KeyError as exc:
            raise ValueError("missing field %s" % exc) from None
        if not isinstance(key, str) or not _is_canonical(key):
            raise ValueError("bad key %r" % (key,))
        if sign not in _SIGNS:
            raise ValueError("bad sign %r" % (sign,))
        if type(mb) is not int or mb < 0:
            raise ValueError("bad middle_betti %r" % (mb,))
        if not isinstance(torsion, str):
            raise ValueError("bad torsion %r" % (torsion,))
        if not isinstance(sphere, dict) or sphere.get("kind") not in SPHERE_KINDS:
            raise ValueError("bad sphere %r" % (sphere,))
        residue = sphere.get("bp8_residue")
        if residue is not None and (
            type(residue) is not int or not 0 <= residue < BP8_ORDER
        ):
            raise ValueError("bad bp8_residue %r" % (residue,))
        sig = obj.get("signature")
        if sig is not None and type(sig) is not int:
            raise ValueError("bad signature %r" % (sig,))
        note = obj.get("constants_note")
        if note is not None and not isinstance(note, str):
            raise ValueError("bad constants_note %r" % (note,))
        version = obj.get("tool_version", TOOL_VERSION)
        if not isinstance(version, str):
            raise ValueError("bad tool_version %r" % (version,))
        stamp = obj.get("timestamp")
        if stamp is not None and not isinstance(stamp, str):
            raise ValueError("bad timestamp %r" % (stamp,))
        return cls(
            key=key,
            sign=sign,
            middle_betti=mb,
            torsion=torsion,
            sphere=SphereVerdict(sphere["kind"], residue),
            signature=sig,
            constants_note=note,
            tool_version=version,
            timestamp=stamp,
        )


# each catalog filter, by keyword: the record value it compares and, for
# text, the table whose positions the index stores; also the index's
# column order
FILTERS = {
    "sign": (attrgetter("sign"), _SIGNS),
    "middle_betti": (attrgetter("middle_betti"), None),
    "sphere": (attrgetter("sphere.kind"), SPHERE_KINDS),
    "nvars": (lambda rec: key_nvars(rec.key), None),
}


def _code(table: tuple | None, value):
    """What the index stores for a filter value: its position in the
    table (-1, which no record has, when it is not there), or itself."""
    if table is None:
        return value
    return table.index(value) if value in table else -1


def build_record(source: BPExponents | WeightSystem) -> InvariantRecord:
    """Compute the full invariant record for a link presentation."""
    exps = source if isinstance(source, BPExponents) else None
    ws = bp_link(exps) if exps is not None else source

    sign = classify_sign(ws)
    b = betti(ws)
    middle = b.middle_betti

    if exps is not None and exps.nvars == 4:
        torsion = torsion_closed_form(exps)
    elif exps is not None and exps.nvars == 3 and exps.pairwise_coprime():
        torsion = TORSION_FREE
    elif ws.nvars == 4 and is_well_formed(ws):
        torsion = TORSION_FREE
    else:
        torsion = TORSION_UNKNOWN

    signature = None
    if exps is not None and exps.nvars in SIGNATURE_NVARS:
        sig = brieskorn_signature(exps)
        # the lattice points with integer t are the eigenvalue-1 part, so
        # they must number exactly the middle Betti number
        integral = prod(x - 1 for x in exps.exponents) - sig.positive - sig.negative
        if middle != integral:
            raise InconsistentInvariants(
                "%s: middle Betti number %d, but %d lattice points have integer t"
                % (canonical_key(exps), middle, integral)
            )
        signature = sig.signature

    sphere = sphere_verdict(source, b, signature, torsion)

    note = None
    if sign is SignClass.NULL and ws.link_dim > 1:  # EtaConstants needs n >= 1
        c = null_constants((ws.link_dim - 1) // 2)
        note = "null structure: (lambda, nu) = (%s, %s)" % (c.lam, c.nu)

    return InvariantRecord(
        key=canonical_key(source),
        sign=sign.value,
        middle_betti=middle,
        torsion=str(torsion),
        sphere=sphere,
        signature=signature,
        constants_note=note,
    )


def record_cost(source: BPExponents | WeightSystem) -> int:
    """Budget estimate: betti_cost for the Betti sum plus
    spheres.signature_cost when a signature will be computed."""
    cost = betti_cost(source.nvars)
    if isinstance(source, BPExponents) and source.nvars in SIGNATURE_NVARS:
        cost += signature_cost(source.exponents)
    return cost


@dataclass(frozen=True)
class CorruptLine:
    lineno: int
    reason: str


@dataclass(frozen=True)
class ReadResult:
    records: tuple[InvariantRecord, ...]
    corrupt: tuple[CorruptLine, ...]


@dataclass(frozen=True)
class AppendResult:
    added: int
    skipped: int
    corrupt: tuple[CorruptLine, ...]


def read_records(
    lines: Iterable[str],
    keep: Callable[[InvariantRecord], bool] | None = None,
    only: Container[int] | None = None,
    index: _Index | None = None,
) -> ReadResult:
    """Records of JSONL lines.  Blank lines are ignored; a malformed
    line, or one holding bytes that are not UTF-8 (decoded with
    errors="surrogateescape"), is reported with its line number and
    skipped.  A valid record that keep rejects is dropped as soon as it
    has been validated.  When only is given, just the lines with those
    numbers are decoded.  A given index is filled with every valid
    record, the corrupt lines and the line count."""
    records: list[InvariantRecord] = []
    corrupt: list[CorruptLine] = []
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        if only is not None and lineno not in only:
            continue
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii():
                line.encode("utf-8")
            rec = InvariantRecord.from_json(json.loads(line))
        except UnicodeEncodeError:
            corrupt.append(CorruptLine(lineno, "not valid UTF-8"))
        except (ValueError, TypeError) as exc:
            corrupt.append(CorruptLine(lineno, str(exc)))
        else:
            if index is not None:
                index.add(lineno, rec)
            if keep is None or keep(rec):
                records.append(rec)
    if index is not None:
        index.count = lineno
        index.corrupt = tuple(corrupt)
    return ReadResult(tuple(records), tuple(corrupt))


def read_catalog(
    path,
    keep: Callable[[InvariantRecord], bool] | None = None,
    only: Container[int] | None = None,
    index: _Index | None = None,
) -> ReadResult:
    """read_records of the catalog at path, whose lines are numbered
    as text-mode iteration with universal newlines yields them; a
    missing file holds none."""
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        return ReadResult((), ())
    with fh:
        return read_records(fh, keep, only, index)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _stamp(path) -> list:
    """[crc32, byte length, last character] of the file at path."""
    crc = size = 0
    last = ""
    with open(
        path, "r", encoding="utf-8", errors="surrogateescape", newline=""
    ) as fh:
        while chunk := fh.read(1 << 20):
            data = chunk.encode("utf-8", "surrogateescape")
            crc = zlib.crc32(data, crc)
            size += len(data)
            last = chunk[-1]
    return [crc, size, last]


def _index_path(path) -> str:
    return os.fspath(path) + ".keys"


@dataclass
class _Index:
    """The index beside a catalog (see the module docstring): one column
    per FILTERS entry, holding the _code of each record's value."""

    stamp: list
    count: int = 0  # the lines read_records counts in the catalog
    corrupt: tuple[CorruptLine, ...] = ()
    lines: list[int] = field(default_factory=list)
    keys: list[str] = field(default_factory=list)
    columns: dict[str, list[int]] = field(
        default_factory=lambda: {name: [] for name in FILTERS}
    )

    def add(self, lineno: int, rec: InvariantRecord) -> None:
        self.lines.append(lineno)
        self.keys.append(rec.key)
        for name, (value, table) in FILTERS.items():
            self.columns[name].append(_code(table, value(rec)))

    def select(self, **filters) -> set[int]:
        """Line numbers of the records record_filter(**filters) keeps."""
        rows = range(len(self.lines))
        for name, (_, table) in FILTERS.items():
            if filters.get(name) is not None:
                column, want = self.columns[name], _code(table, filters[name])
                rows = [i for i in rows if column[i] == want]
        return {self.lines[i] for i in rows}


def _load_index(path, stamp: list) -> _Index | None:
    """The index beside the catalog at path, or None when it is
    missing, unreadable, malformed or not stamped with stamp."""
    try:
        with open(_index_path(path), "r", encoding="utf-8") as fh:
            data = json.loads(fh.read())
        if data["stamp"] != stamp:
            return None
        count, lines, keys = data["count"], data["lines"], data["keys"]
        corrupt = tuple(CorruptLine(n, reason) for n, reason in data["corrupt"])
        columns = {name: data[name] for name in FILTERS}
    except (OSError, ValueError, TypeError, KeyError):
        return None
    typed = [(lines, int), (keys, str), *((c, int) for c in columns.values())]
    if not (
        type(count) is int
        and all(type(c.lineno) is int and isinstance(c.reason, str) for c in corrupt)
        and all(isinstance(column, list) for column, _ in typed)
        and len({len(column) for column, _ in typed}) == 1
        and all(set(map(type, column)) <= {kind} for column, kind in typed)
    ):
        return None
    return _Index(stamp, count, corrupt, lines, keys, columns)


def _save_index(path, index: _Index) -> None:
    data = {"stamp": index.stamp, "count": index.count}
    data["corrupt"] = [[c.lineno, c.reason] for c in index.corrupt]
    data.update(lines=index.lines, keys=index.keys, **index.columns)
    target = _index_path(path)
    # two queries may write at once, each the same text; a reader that
    # meets a half-written index takes it for malformed and rebuilds it
    try:
        with open(target + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))
        os.replace(target + ".tmp", target)
    except OSError:  # the index is a cache; the next append or query rebuilds
        with suppress(OSError):
            os.remove(target + ".tmp")


def _current_index(path) -> tuple[_Index, bool]:
    """The index of the catalog at path, under the caller's lock: the
    saved one when its stamp matches, else one rebuilt from every record;
    and whether it was rebuilt, so that the caller saves it."""
    stamp = _stamp(path)
    index = _load_index(path, stamp)
    if index is not None:
        return index, False
    index = _Index(stamp)
    read_catalog(path, lambda rec: False, index=index)
    return index, True


def catalog_append(path, records: Iterable[InvariantRecord]) -> AppendResult:
    """Append records not already present (by key).  Existing corrupt
    lines are reported but left in place; a partial last line is ended
    before the first new record.  The records are indexed as given, not
    decoded again: they are taken to be as build_record and read_records
    make them."""
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        index, stale = _current_index(path)
        keys = dict.fromkeys(index.keys)
        lines = []
        skipped = 0
        for rec in records:
            if rec.key in keys:
                skipped += 1
                continue
            if rec.timestamp is None:
                rec = replace(rec, timestamp=_now())
            lines.append(json.dumps(rec.to_json(), sort_keys=True) + "\n")
            keys[rec.key] = None
            # a cut last line, or one ended by "\r", was counted already;
            # the "\n" written to end it starts no line of its own
            index.add(index.count + len(lines), rec)
        if lines:
            text = "".join(lines)
            if index.stamp[2] not in ("", "\n"):
                text = "\n" + text
            fh.write(text)
            data = text.encode("utf-8")
            crc, size, _ = index.stamp
            index.stamp = [zlib.crc32(data, crc), size + len(data), "\n"]
            index.count += len(lines)
        if lines or stale:
            _save_index(path, index)
    return AppendResult(len(lines), skipped, index.corrupt)


def record_filter(**filters) -> Callable[[InvariantRecord], bool]:
    """Predicate on records: each FILTERS entry named with a value that
    is not None must match."""
    unknown = sorted(filters.keys() - FILTERS.keys())
    if unknown:
        raise TypeError(
            "record_filter() got an unexpected keyword argument %r" % unknown[0]
        )
    checks = [(FILTERS[k][0], want) for k, want in filters.items() if want is not None]

    def keep(rec: InvariantRecord) -> bool:
        for value, want in checks:
            if value(rec) != want:
                return False
        return True

    return keep


def catalog_query(path, **filters) -> ReadResult:
    """Catalog records that pass record_filter(**filters), sorted by
    key, and the catalog's corrupt lines: the same answer as
    read_catalog(path, record_filter(**filters)), sorted.  The index
    picks the lines; only those are decoded."""
    keep = record_filter(**filters)
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return ReadResult((), ())
    with fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
        index, stale = _current_index(path)
        if stale:
            _save_index(path, index)
        only, corrupt = index.select(**filters), index.corrupt
        del index  # freed before the matched lines are decoded
        data = read_catalog(path, keep, only)
    # a served line can still be corrupt: appends index records without
    # decoding them again
    corrupt = tuple(sorted(corrupt + data.corrupt, key=lambda c: c.lineno))
    return ReadResult(tuple(sorted(data.records, key=lambda r: r.key)), corrupt)


def reverify_record(rec: InvariantRecord) -> list[str]:
    """Rebuild the record from its key and report every field that
    differs, apart from the write-time fields.  An empty list means the
    record still checks out."""
    fresh = build_record(parse_key(rec.key))
    issues = []
    for field in fields(InvariantRecord):
        if field.name in ("tool_version", "timestamp"):
            continue
        old, new = getattr(rec, field.name), getattr(fresh, field.name)
        if old != new:
            issues.append("%s: stored %r, recomputed %r" % (field.name, old, new))
    return issues


__all__ = [
    "TOOL_VERSION",
    "InvariantRecord",
    "CorruptLine",
    "ReadResult",
    "AppendResult",
    "parse_key",
    "build_record",
    "record_cost",
    "read_records",
    "read_catalog",
    "catalog_append",
    "FILTERS",
    "record_filter",
    "catalog_query",
    "reverify_record",
]
