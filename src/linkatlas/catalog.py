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

Each record field is declared once, in InvariantRecord, and its
metadata (_entry) is its row of the record table: the check its JSON
value must pass, made from its domain (a table, a type or the least int)
when it has one; its text-row column, if any; and whether it is a
write-time field, which reverify_record does not compare.  A field with
a default is optional on read.

Each catalog filter is defined once, in FILTERS, with the values it may
ask for, its field's domain; record_filter, catalog_query,
search.run_search and the index all read it, and refuse (InvalidInput)
what the command line refuses.
Beside the catalog lives that index, `<catalog>.keys`, a text file with
one row per valid record line, in file order:

- line 1, a JSON header: the layout tag, a stamp of the catalog it
  describes (crc32, byte length and last character of the file), the
  number of lines the reader counts, the corrupt lines (line number and
  reason), the row count and the byte order of the columns;
- one line per int column, the base64 of its packed array: the rows'
  line numbers, then one code per filter in FILTERS order (a position in
  the filter's table, or the int itself, saturated at the largest
  32-bit int);
- the keys, one per line.

An index whose header, base64 or lengths do not check out, or one in
the single-JSON-object layout of earlier versions, is unusable, and is
rebuilt once.  Appends and queries read the whole catalog once to
compute its stamp, and trust the index only when the stamp matches;
else they first rebuild it from every record.  An append then skips the
keys it lists and adds the records it writes; a query answers from the
index without splitting its keys, decoding only the lines whose codes
pass its filters, and validates them again (a query that rebuilds
answers from that read).
Each call writes the index at most once: an append when it adds records
or found the index stale, a query only when it found it stale.  The
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
import sys
import zlib
from array import array
from base64 import b64decode, b64encode
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cache, cached_property
from itertools import compress
from math import prod
from operator import attrgetter
from typing import Callable, Container, Iterable

from .betti import betti, betti_cost, torsion_closed_form
from .errors import AtlasError, InconsistentInvariants, InvalidInput, NotQuasiSmooth
from .eta import null_constants
from .links import (
    BPExponents,
    SignClass,
    WeightSystem,
    bp_link,
    canonical_key,
    classify_sign,
    is_well_formed,  # noqa: F401  (a name perfbench traces)
    key_nvars,
    parse_link as parse_key,
    quasi_smooth_cost,
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

# what a field's check returns for a JSON value the field refuses
_BAD = object()


def _canonical(key):
    """key, if it is a str that parses and is the canonical key of what
    it parses to.  Only bp: and w: keys can be, so no other spelling is
    parsed: a mono: key would be solved for its weights."""
    if not isinstance(key, str) or not key.startswith(("bp:", "w:")):
        return _BAD
    try:
        return key if canonical_key(parse_key(key)) == key else _BAD
    except AtlasError:
        return _BAD


def _within(domain) -> Callable:
    """The check of a value in domain: a table, a type (a bool is no
    int), or the least of the ints it holds."""
    if isinstance(domain, tuple):
        return lambda value: value if value in domain else _BAD
    if isinstance(domain, type):
        return lambda value: value if type(value) is domain else _BAD
    return lambda value: value if type(value) is int and value >= domain else _BAD


# one frozen object per verdict: _sphere calls it only with a sphere kind
# and a residue mod |bP_8| or None, so it holds at most 6 x 29 of them
_verdict = cache(SphereVerdict)


def _sphere(value):
    """The check of a sphere: an object whose kind is a sphere kind and
    whose bp8_residue, if any, is a residue mod |bP_8|."""
    if not isinstance(value, dict) or value.get("kind") not in SPHERE_KINDS:
        return _BAD
    residue = value.get("bp8_residue")
    if residue is not None and (
        type(residue) is not int or not 0 <= residue < BP8_ORDER
    ):
        raise ValueError("bad bp8_residue %r" % (residue,))
    return _verdict(value["kind"], residue)


def _entry(column, check=None, *, domain=None, shown="", write_time=False, **default):
    """A field's row in the record table (see the module docstring)."""
    meta = dict(column=column, shown=shown, domain=domain, write_time=write_time)
    return field(**default, metadata={**meta, "check": check or _within(domain)})


@dataclass(frozen=True)
class InvariantRecord:
    """A link's invariants, as one catalog line holds them."""

    key: str = _entry("key", _canonical)
    sign: str = _entry("sign", domain=tuple(s.value for s in SignClass))
    middle_betti: int = _entry("betti", domain=0)
    torsion: str = _entry("torsion", domain=str)
    sphere: SphereVerdict = _entry("sphere", _sphere, domain=SPHERE_KINDS, shown=".label")
    signature: int | None = _entry("signature", domain=int, default=None)
    constants_note: str | None = _entry(None, domain=str, default=None)
    tool_version: str = _entry(None, domain=str, default=TOOL_VERSION, write_time=True)
    timestamp: str | None = _entry(None, domain=str, default=None, write_time=True)

    def to_json(self) -> dict:
        return {**vars(self), "sphere": dict(vars(self.sphere))}

    @classmethod
    def from_json(cls, obj: dict) -> "InvariantRecord":
        """The record of a catalog line's object: every field without a
        default must be present, then each check passes, in field order,
        on every value but a default.  A ValueError names the first fault."""
        if not isinstance(obj, dict):
            raise ValueError("record must be an object")
        for name in _REQUIRED:
            if name not in obj:
                raise ValueError("missing field %r" % name)
        values = []
        for name, default, check in _CHECKS:
            value = obj.get(name, default)
            if (checked := value if value is default else check(value)) is _BAD:
                raise ValueError("bad %s %r" % (name, value))
            values.append(checked)
        return cls(*values)


_REQUIRED = [f.name for f in fields(InvariantRecord) if f.default is MISSING]
_CHECKS = [(f.name, f.default, f.metadata["check"]) for f in fields(InvariantRecord)]
_DOMAINS = {f.name: f.metadata["domain"] for f in fields(InvariantRecord)}


# each catalog filter, by keyword: the record value it compares, and the
# values a filter may ask for: a table, whose positions the index stores,
# or the least int, which the index stores itself; also the index's
# column order
FILTERS = {
    "sign": (attrgetter("sign"), _DOMAINS["sign"]),
    "middle_betti": (attrgetter("middle_betti"), _DOMAINS["middle_betti"]),
    "sphere": (attrgetter("sphere.kind"), _DOMAINS["sphere"]),
    "nvars": (lambda rec: key_nvars(rec.key), 2),
}

# the largest code an index column holds: a larger int is stored as it,
# and a query stays exact because it runs its filter on every line it
# decodes
_CODE_MAX = 2 ** (8 * array("i").itemsize - 1) - 1


def _code(domain: tuple | int, value) -> int:
    """What the index stores for a filter value: its position in the
    table (-1, which no record has, when it is not there), or itself,
    saturated at _CODE_MAX."""
    if isinstance(domain, tuple):
        return domain.index(value) if value in domain else -1
    return min(value, _CODE_MAX)


def at_least(name: str, value, least: int) -> None:
    """Raise InvalidInput unless value is an int of at least least: the
    check the command line's int options make."""
    if type(value) is not int or value < least:
        raise InvalidInput(
            "%s must be an integer of at least %d, got %r" % (name, least, value)
        )


def _check_filter(name: str, want) -> None:
    """Raise InvalidInput for a filter value the command line refuses."""
    domain = FILTERS[name][1]
    if not isinstance(domain, tuple):
        at_least(name, want, domain)
    elif want not in domain:
        raise InvalidInput(
            "%s must be one of %s, got %r" % (name, ", ".join(domain), want)
        )


def build_record(source: BPExponents | WeightSystem) -> InvariantRecord:
    """Compute the full invariant record for a link presentation."""
    exps = source if isinstance(source, BPExponents) else None
    ws = bp_link(exps) if exps is not None else source

    sign = classify_sign(ws)
    b = betti(ws)
    middle = b.middle_betti

    torsion = torsion_closed_form(ws, b)

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

    sphere = sphere_verdict(b, signature)

    note = None
    if sign is SignClass.NULL and ws.link_dim > 1:  # EtaConstants needs n >= 1
        c = null_constants((ws.link_dim - 1) // 2)
        note = "null structure: (lambda, nu) = (%s, %s)" % (c.lam, c.nu)

    return InvariantRecord(
        key=canonical_key(source),
        sign=sign.value,
        middle_betti=middle,
        torsion=torsion,
        sphere=sphere,
        signature=signature,
        constants_note=note,
    )


def record_cost(source: BPExponents | WeightSystem) -> int:
    """Budget estimate: betti_cost for the Betti sum, plus
    spheres.signature_cost when a signature will be computed, or the
    quasi-smooth gate's cost for a weight system (a bp_link's is 0)."""
    cost = betti_cost(source.nvars)
    if not isinstance(source, BPExponents):
        cost += quasi_smooth_cost(source)
    elif source.nvars in SIGNATURE_NVARS:
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
        # json.loads raises RecursionError on deeply nested arrays
        except (ValueError, TypeError, RecursionError) as exc:
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
    lines: array = field(default_factory=lambda: array("q"))
    columns: dict[str, array] = field(
        default_factory=lambda: {name: array("i") for name in FILTERS}
    )
    block: str = ""  # the saved keys, each ended by "\n"

    @cached_property
    def keys(self) -> list[str]:
        """The rows' keys, split from the saved block on first use."""
        return self.block.split("\n")[:-1]

    def add(self, lineno: int, rec: InvariantRecord) -> None:
        self.lines.append(lineno)
        self.keys.append(rec.key)
        for name, (value, domain) in FILTERS.items():
            self.columns[name].append(_code(domain, value(rec)))

    def select(self, **filters) -> set[int]:
        """Line numbers of the records whose codes match the filters':
        all that record_filter(**filters) keeps, and any whose value
        saturates to the same code as a wanted one."""
        matches = [
            map(_code(domain, filters[name]).__eq__, self.columns[name])
            for name, (_, domain) in FILTERS.items()
            if filters.get(name) is not None
        ]
        if not matches:
            return set(self.lines)
        return set(compress(self.lines, map(all, zip(*matches))))


# the first line of an index names its layout; an index without it, such
# as the single JSON object of earlier versions, is rebuilt
_FORMAT = "linkatlas-keys/2"


def _column(typecode: str, line: str) -> array:
    column = array(typecode)
    column.frombytes(b64decode(line.rstrip("\n"), validate=True))
    return column


def _load_index(path, stamp: list) -> _Index | None:
    """The index beside the catalog at path, or None when it is
    missing, unreadable, malformed, in another layout or byte order, or
    not stamped with stamp."""
    try:
        with open(_index_path(path), "r", encoding="utf-8", newline="\n") as fh:
            head = json.loads(fh.readline())
            if not (
                type(head) is dict
                and head.get("format") == _FORMAT
                and head.get("stamp") == stamp
                and head.get("byteorder") == sys.byteorder
            ):
                return None
            rows, count = head["rows"], head["count"]
            corrupt = tuple(CorruptLine(n, reason) for n, reason in head["corrupt"])
            lines = _column("q", fh.readline())
            columns = {name: _column("i", fh.readline()) for name in FILTERS}
            block = fh.read()
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None
    if not (
        type(rows) is int
        and type(count) is int
        and all(type(c.lineno) is int and isinstance(c.reason, str) for c in corrupt)
        and block.count("\n") == rows
        and block[-1:] in ("", "\n")  # each key ends with "\n"
        and all(len(column) == rows for column in (lines, *columns.values()))
    ):
        return None
    return _Index(stamp, count, corrupt, lines, columns, block)


def _save_index(path, index: _Index) -> None:
    head = {
        "format": _FORMAT,
        "stamp": index.stamp,
        "count": index.count,
        "corrupt": [[c.lineno, c.reason] for c in index.corrupt],
        "rows": len(index.lines),
        "byteorder": sys.byteorder,
    }
    columns = (index.lines, *index.columns.values())
    packed = [b64encode(column).decode("ascii") for column in columns]
    target = _index_path(path)
    # two queries may write at once, each the same text; a reader that
    # meets a half-written index takes it for malformed and rebuilds it
    try:
        with open(target + ".tmp", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join([json.dumps(head), *packed, *index.keys, ""]))
        os.replace(target + ".tmp", target)
    # the index is a cache: the next append or query rebuilds it (only a
    # record made by hand can hold a key that UTF-8 cannot encode)
    except (OSError, UnicodeEncodeError):
        with suppress(OSError):
            os.remove(target + ".tmp")


def _current_index(path, keep=lambda rec: False) -> tuple[_Index, ReadResult | None]:
    """The index of the catalog at path, under the caller's lock: the
    saved one when its stamp matches, else one rebuilt from every record;
    and, when it was rebuilt, that read of the catalog with keep, so that
    the caller saves the index and need not read the catalog again."""
    stamp = _stamp(path)
    index = _load_index(path, stamp)
    if index is not None:
        return index, None
    index = _Index(stamp)
    return index, read_catalog(path, keep, index=index)


def catalog_append(path, records: Iterable[InvariantRecord]) -> AppendResult:
    """Append records not already present (by key).  Existing corrupt
    lines are reported but left in place; a partial last line is ended
    before the first new record.  The records are indexed as given, not
    decoded again: they are taken to be as build_record and read_records
    make them."""
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        index, rebuilt = _current_index(path)
        records = list(records)
        # the keys of the batch already present: far fewer to hash than
        # the catalog's
        present = {rec.key for rec in records}.intersection(index.keys)
        lines = []
        skipped = 0
        for rec in records:
            if rec.key in present:
                skipped += 1
                continue
            if rec.timestamp is None:
                rec = replace(rec, timestamp=_now())
            lines.append(json.dumps(rec.to_json(), sort_keys=True) + "\n")
            present.add(rec.key)
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
        if lines or rebuilt is not None:
            _save_index(path, index)
    return AppendResult(len(lines), skipped, index.corrupt)


def record_filter(**filters) -> Callable[[InvariantRecord], bool]:
    """Predicate on records: each FILTERS entry named with a value that
    is not None must match.  A value the command line refuses raises
    InvalidInput."""
    unknown = sorted(filters.keys() - FILTERS.keys())
    if unknown:
        raise TypeError(
            "record_filter() got an unexpected keyword argument %r" % unknown[0]
        )
    checks = []
    for name, want in filters.items():
        if want is not None:
            _check_filter(name, want)
            checks.append((FILTERS[name][0], want))

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
    picks the lines; only those are decoded.  A query that rebuilds the
    index answers from the rebuild's own read."""
    keep = record_filter(**filters)
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return ReadResult((), ())
    with fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
        index, rebuilt = _current_index(path, keep)
        if rebuilt is not None:
            _save_index(path, index)
            records, corrupt = rebuilt.records, rebuilt.corrupt
        else:
            only, corrupt = index.select(**filters), index.corrupt
            del index  # freed before the matched lines are decoded
            data = read_catalog(path, keep, only)
            records = data.records
            # a served line can still be corrupt: appends index records
            # without decoding them again
            corrupt = tuple(sorted(corrupt + data.corrupt, key=lambda c: c.lineno))
    return ReadResult(tuple(sorted(records, key=lambda r: r.key)), corrupt)


def reverify_record(rec: InvariantRecord) -> list[str]:
    """Rebuild the record from its key and report every field that
    differs, apart from the write-time fields.  An empty list means the
    record still checks out; a key with no link is one issue."""
    try:
        fresh = build_record(parse_key(rec.key))
    except NotQuasiSmooth:
        return ["no link: not quasi-smooth"]
    issues = []
    for field in fields(InvariantRecord):
        if field.metadata["write_time"]:
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
