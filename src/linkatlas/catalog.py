"""Persisted invariant records and the JSONL catalog format.

One record per line, keyed by the canonical form of the link (sorted
exponents for Brieskorn-Pham input, sorted primitive weights plus
degree otherwise).  Appends are idempotent: a key already present is
skipped.  Malformed lines are reported with their line number and
skipped; they never abort a read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from math import prod
from typing import Iterable, Sequence

from .betti import TorsionForm, betti, torsion_closed_form
from .errors import InconsistentInvariants
from .links import (
    BPExponents,
    WeightSystem,
    bp_link,
    canonical_key,
    classify_sign,
    is_well_formed,
    parse_link as parse_key,
)
from .spheres import (
    SphereVerdict,
    bp8_residue,
    brieskorn_signature,
    is_homology_3_sphere,
    signature_cost,
)

TOOL_VERSION = "0.1.0"

_SIGNS = ("positive", "null", "negative")
_SPHERE_KINDS = (
    "standard_sphere",
    "kervaire_sphere",
    "homology_sphere",
    "rational_homology_sphere",
    "not_a_sphere",
    "undetermined",
)


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
        if not isinstance(sphere, dict) or sphere.get("kind") not in _SPHERE_KINDS:
            raise ValueError("bad sphere %r" % (sphere,))
        residue = sphere.get("bp8_residue")
        if residue is not None and (
            not isinstance(residue, int) or not 0 <= residue < 28
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
    if ws.nvars == 4 and torsion.kind == "torsion_free":
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
        torsion = TorsionForm("torsion_free")
    elif ws.nvars == 4 and is_well_formed(ws):
        torsion = TorsionForm("torsion_free")
    else:
        torsion = TorsionForm("unknown")

    signature = None
    if exps is not None and exps.nvars in (3, 5):
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
    if sign.value == "null":
        n = ws.nvars - 1
        note = "null structure: (lambda, nu) = (-2, %d)" % (2 * n + 2)

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
    """Budget estimate: 2^nvars for the Betti sum plus
    spheres.signature_cost when a signature will be computed."""
    cost = 1 << source.nvars
    if isinstance(source, BPExponents) and source.nvars in (3, 5):
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


def read_records(lines: Iterable[str]) -> ReadResult:
    """Records of JSONL lines.  Blank lines are ignored; a malformed
    line is reported with its line number and skipped."""
    records: list[InvariantRecord] = []
    corrupt: list[CorruptLine] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(InvariantRecord.from_json(json.loads(line)))
        except (ValueError, TypeError) as exc:
            corrupt.append(CorruptLine(lineno, str(exc)))
    return ReadResult(tuple(records), tuple(corrupt))


def read_catalog(path: str) -> ReadResult:
    """The records of the catalog at path; a missing file holds none."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return ReadResult((), ())
    with fh:
        return read_records(fh)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def catalog_append(path: str, records: Iterable[InvariantRecord]) -> AppendResult:
    """Append records not already present (by key).  Existing corrupt
    lines are reported but left in place."""
    existing = read_catalog(path)
    seen = {r.key for r in existing.records}
    added = skipped = 0
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            if rec.key in seen:
                skipped += 1
                continue
            if rec.timestamp is None:
                rec = replace(rec, timestamp=_now())
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
            seen.add(rec.key)
            added += 1
    return AppendResult(added, skipped, existing.corrupt)


def catalog_query(
    path: str,
    sign: str | None = None,
    middle_betti: int | None = None,
    sphere: str | None = None,
    nvars: int | None = None,
) -> ReadResult:
    """Filter catalog records; results sorted by key."""
    data = read_catalog(path)
    out = []
    for rec in data.records:
        if sign is not None and rec.sign != sign:
            continue
        if middle_betti is not None and rec.middle_betti != middle_betti:
            continue
        if sphere is not None and rec.sphere.kind != sphere:
            continue
        if nvars is not None and parse_key(rec.key).nvars != nvars:
            continue
        out.append(rec)
    out.sort(key=lambda r: r.key)
    return ReadResult(tuple(out), data.corrupt)


def reverify_record(rec: InvariantRecord) -> list[str]:
    """Recompute the mathematical fields from the key and report any
    mismatches.  An empty list means the record still checks out."""
    fresh = build_record(parse_key(rec.key))
    issues = []
    for field in ("sign", "middle_betti", "torsion", "signature"):
        old, new = getattr(rec, field), getattr(fresh, field)
        if old != new:
            issues.append("%s: stored %r, recomputed %r" % (field, old, new))
    if rec.sphere != fresh.sphere:
        issues.append(
            "sphere: stored %r, recomputed %r" % (rec.sphere, fresh.sphere)
        )
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
