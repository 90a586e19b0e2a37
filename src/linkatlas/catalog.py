"""Persisted invariant records and the JSONL catalog format.

One record per line, keyed by the canonical form of the link (sorted
exponents for Brieskorn-Pham input, sorted primitive weights plus
degree otherwise).  Appends are idempotent: a key already present is
skipped.  Malformed lines, and lines that are not valid UTF-8, are
reported with their line number and skipped; they never abort a read.

A null record of a (2n+1)-dimensional link carries the note
"null structure: (lambda, nu) = (-2, 2n+2)", the constants of
eta.null_constants(n); a 1-dimensional link (n = 0) gets no note.

Beside the catalog, an append keeps `<catalog>.keys`: a JSON object
holding the keys present, the corrupt lines (line number and reason)
and a stamp of the catalog it describes (crc32, byte length and last
character of the file).  An append reads the whole catalog once to
compute its stamp; only when the stamp matches does it trust the
index, otherwise it re-reads every record.  The index is a cache:
deleting it is always safe, and failing to read or write it is never
an error.  An append holds an exclusive `flock` on the catalog from
computing the stamp until the index is written, so two appends cannot
both add one key.
"""

from __future__ import annotations

import fcntl
import json
import os
import zlib
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from math import prod
from typing import Callable, Iterable

from .betti import (
    TORSION_FREE,
    TORSION_UNKNOWN,
    TorsionForm,
    betti,
    betti_cost,
    torsion_closed_form,
)
from .errors import InconsistentInvariants
from .eta import null_constants
from .links import (
    BPExponents,
    SignClass,
    WeightSystem,
    bp_link,
    canonical_key,
    classify_sign,
    is_well_formed,
    parse_link as parse_key,
)
from .spheres import (
    BP8_ORDER,
    SIGNATURE_NVARS,
    SPHERE_KINDS,
    SphereVerdict,
    bp8_residue,
    brieskorn_signature,
    is_homology_3_sphere,
    signature_cost,
)

TOOL_VERSION = "0.1.0"

_SIGNS = tuple(s.value for s in SignClass)


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
        return {
            "key": self.key,
            "sign": self.sign,
            "middle_betti": self.middle_betti,
            "torsion": self.torsion,
            "sphere": {
                "kind": self.sphere.kind,
                "bp8_residue": self.sphere.bp8_residue,
            },
            "signature": self.signature,
            "constants_note": self.constants_note,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
        }

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
        if not isinstance(key, str) or not key:
            raise ValueError("bad key")
        if sign not in _SIGNS:
            raise ValueError("bad sign %r" % (sign,))
        if not isinstance(mb, int) or isinstance(mb, bool) or mb < 0:
            raise ValueError("bad middle_betti %r" % (mb,))
        if not isinstance(torsion, str):
            raise ValueError("bad torsion %r" % (torsion,))
        if not isinstance(sphere, dict) or sphere.get("kind") not in SPHERE_KINDS:
            raise ValueError("bad sphere %r" % (sphere,))
        residue = sphere.get("bp8_residue")
        if residue is not None and (
            not isinstance(residue, int) or not 0 <= residue < BP8_ORDER
        ):
            raise ValueError("bad bp8_residue %r" % (residue,))
        sig = obj.get("signature")
        if sig is not None and (not isinstance(sig, int) or isinstance(sig, bool)):
            raise ValueError("bad signature %r" % (sig,))
        note = obj.get("constants_note")
        if note is not None and not isinstance(note, str):
            raise ValueError("bad constants_note %r" % (note,))
        return cls(
            key=key,
            sign=sign,
            middle_betti=mb,
            torsion=torsion,
            sphere=SphereVerdict(sphere["kind"], residue),
            signature=sig,
            constants_note=note,
            tool_version=obj.get("tool_version", TOOL_VERSION),
            timestamp=obj.get("timestamp"),
        )


def _sphere_verdict(
    exps: BPExponents | None,
    ws: WeightSystem,
    middle: int,
    torsion: TorsionForm,
    signature: int | None,
) -> SphereVerdict:
    if ws.nvars == 3 and exps is not None and is_homology_3_sphere(exps):
        return SphereVerdict("homology_sphere")
    if middle != 0:
        return SphereVerdict("not_a_sphere")
    if ws.nvars == 4 and torsion == TORSION_FREE:
        # simply connected 5-manifold with H_2 = 0 is the standard sphere
        return SphereVerdict("standard_sphere")
    if ws.nvars == 5 and signature is not None:
        return SphereVerdict("rational_homology_sphere", bp8_residue(signature))
    return SphereVerdict("rational_homology_sphere")


def build_record(source: BPExponents | WeightSystem) -> InvariantRecord:
    """Compute the full invariant record for a link presentation."""
    exps = source if isinstance(source, BPExponents) else None
    ws = bp_link(exps) if exps is not None else source

    sign = classify_sign(ws)
    middle = betti(ws).middle_betti

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

    sphere = _sphere_verdict(exps, ws, middle, torsion, signature)

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
    lines: Iterable[str], keep: Callable[[InvariantRecord], bool] | None = None
) -> ReadResult:
    """Records of JSONL lines.  Blank lines are ignored; a malformed
    line, or one holding bytes that are not UTF-8 (decoded with
    errors="surrogateescape"), is reported with its line number and
    skipped.  A valid record that keep rejects is dropped as soon as it
    has been validated."""
    records: list[InvariantRecord] = []
    corrupt: list[CorruptLine] = []
    for lineno, line in enumerate(lines, start=1):
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
            if keep is None or keep(rec):
                records.append(rec)
    return ReadResult(tuple(records), tuple(corrupt))


def read_catalog(
    path, keep: Callable[[InvariantRecord], bool] | None = None
) -> ReadResult:
    """The records of the catalog at path that keep accepts (all when
    keep is None); a missing file holds none."""
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        return ReadResult((), ())
    with fh:
        return read_records(fh, keep)


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


def _load_index(path, stamp: list):
    """(keys, corrupt lines) from the index beside the catalog at path,
    or None when it is missing, unreadable, malformed or not stamped
    with stamp."""
    try:
        with open(_index_path(path), "r", encoding="utf-8") as fh:
            index = json.loads(fh.read())
        if index["stamp"] != stamp:
            return None
        keys = index["keys"]
        corrupt = tuple(CorruptLine(n, reason) for n, reason in index["corrupt"])
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if not (
        isinstance(keys, list)
        and all(isinstance(k, str) for k in keys)
        and all(type(c.lineno) is int and isinstance(c.reason, str) for c in corrupt)
    ):
        return None
    return dict.fromkeys(keys), corrupt


def _save_index(path, stamp: list, keys, corrupt) -> None:
    index = {
        "stamp": stamp,
        "keys": list(keys),
        "corrupt": [[c.lineno, c.reason] for c in corrupt],
    }
    target = _index_path(path)
    try:
        with open(target + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(index))
        os.replace(target + ".tmp", target)
    except OSError:
        pass  # the index is a cache; the next append rescans


def catalog_append(path, records: Iterable[InvariantRecord]) -> AppendResult:
    """Append records not already present (by key).  Existing corrupt
    lines are reported but left in place; a partial last line is ended
    before the first new record."""
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        stamp = _stamp(path)
        index = _load_index(path, stamp)
        if index is None:
            keys: dict[str, None] = {}

            def note_key(rec: InvariantRecord) -> bool:
                keys[rec.key] = None
                return False

            corrupt = read_catalog(path, note_key).corrupt
        else:
            keys, corrupt = index
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
        if lines:
            text = "".join(lines)
            if stamp[2] not in ("", "\n"):
                text = "\n" + text
            fh.write(text)
            data = text.encode("utf-8")
            stamp = [zlib.crc32(data, stamp[0]), stamp[1] + len(data), "\n"]
        if lines or index is None:
            _save_index(path, stamp, keys, corrupt)
    return AppendResult(len(lines), skipped, corrupt)


def catalog_query(
    path,
    sign: str | None = None,
    middle_betti: int | None = None,
    sphere: str | None = None,
    nvars: int | None = None,
) -> ReadResult:
    """Filter catalog records; results sorted by key."""

    def keep(rec: InvariantRecord) -> bool:
        return (
            (sign is None or rec.sign == sign)
            and (middle_betti is None or rec.middle_betti == middle_betti)
            and (sphere is None or rec.sphere.kind == sphere)
            and (nvars is None or parse_key(rec.key).nvars == nvars)
        )

    data = read_catalog(path, keep)
    return ReadResult(tuple(sorted(data.records, key=lambda r: r.key)), data.corrupt)


def reverify_record(rec: InvariantRecord) -> list[str]:
    """Recompute the mathematical fields from the key and report any
    mismatches.  An empty list means the record still checks out."""
    fresh = build_record(parse_key(rec.key))
    issues = []
    for field in ("sign", "middle_betti", "torsion", "signature", "sphere"):
        old, new = getattr(rec, field), getattr(fresh, field)
        if old != new:
            issues.append("%s: stored %r, recomputed %r" % (field, old, new))
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
    "catalog_query",
    "reverify_record",
]
