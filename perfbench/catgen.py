"""Seeded JSONL catalog for the catalog1e5 workload.

Records follow the catalog schema with unique, parseable `bp:` keys of 3,
4 and 5 exponents.  The key and the sign class are real (the sign follows
from sum 1/a_i against 1); the other fields are drawn from the seed, since
this workload measures catalog I/O and filtering, not invariant maths.
The generator remembers every record it wrote (compactly), so the checks compare the
program's answers with these counts, never with earlier program output.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import lcm

# records per exponent count: nvars 3 is the ~37k-row `--nvars 3` query
QUOTAS = {3: 37_000, 4: 38_000, 5: 25_000}
# exponent ranges per count, wide enough that keys stay easy to draw
RANGES = {3: (2, 90), 4: (2, 40), 5: (2, 22)}
TIMESTAMP = "2026-01-01T00:00:00+00:00"
MAX_BETTI = 400


def _sign(exps) -> str:
    d = lcm(*exps)
    total = sum(d // a for a in exps)
    if total > d:
        return "positive"
    if total == d:
        return "null"
    return "negative"


def _note(sign: str, nvars: int) -> str | None:
    if sign == "null":
        return "null structure: (lambda, nu) = (-2, %d)" % (2 * nvars)
    return None


class CatalogModel:
    """What the catalog file should hold: every key with the fields a
    query row shows, kept as one small tuple per key, plus the per-field
    counts the queries are checked against."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # key -> (sign, middle_betti, torsion, sphere kind, bp8 residue, signature)
        self.rows: dict[str, tuple] = {}
        self.keys: list[str] = []
        self.counts = {
            "nvars": Counter(),
            "sign": Counter(),
            "sphere": Counter(),
            "betti": Counter(),
        }

    def _new_key(self, nvars: int) -> tuple[str, tuple[int, ...]]:
        lo, hi = RANGES[nvars]
        while True:
            exps = tuple(sorted(self.rng.randint(lo, hi) for _ in range(nvars)))
            key = "bp:" + ",".join(map(str, exps))
            if key not in self.rows:
                return key, exps

    def _new_row(self, nvars: int) -> tuple[str, tuple]:
        rng = self.rng
        key, exps = self._new_key(nvars)
        betti = 0 if rng.random() < 0.25 else rng.randint(1, MAX_BETTI)
        residue = None
        if betti:
            sphere = "not_a_sphere"
        elif nvars == 3:
            sphere = "homology_sphere"
        elif nvars == 4:
            sphere = "standard_sphere"
        else:
            sphere = "rational_homology_sphere"
            residue = rng.randrange(28)
        signature = None
        if nvars in (3, 5):
            signature = 8 * residue if residue is not None else -2 * rng.randint(0, MAX_BETTI)
        torsion = "torsion_free" if nvars == 4 else "unknown"
        return key, (_sign(exps), betti, torsion, sphere, residue, signature)

    def record(self, key: str, row: tuple | None = None) -> dict:
        """The schema record written under `key`."""
        sign, betti, torsion, sphere, residue, signature = row or self.rows[key]
        return {
            "key": key,
            "sign": sign,
            "middle_betti": betti,
            "torsion": torsion,
            "sphere": {"kind": sphere, "bp8_residue": residue},
            "signature": signature,
            "constants_note": _note(sign, key.count(",") + 1),
            "tool_version": "0.1.0",
            "timestamp": TIMESTAMP,
        }

    def _remember(self, key: str, row: tuple) -> None:
        self.rows[key] = row
        self.keys.append(key)
        self.counts["nvars"][key.count(",") + 1] += 1
        self.counts["sign"][row[0]] += 1
        self.counts["sphere"][row[3]] += 1
        self.counts["betti"][row[1]] += 1

    def write_catalog(self, path: str) -> None:
        """Draw the full catalog and write it to `path`."""
        order = [n for n, q in QUOTAS.items() for _ in range(q)]
        self.rng.shuffle(order)
        with open(path, "w", encoding="utf-8") as fh:
            for nvars in order:
                key, row = self._new_row(nvars)
                self._remember(key, row)
                fh.write(json.dumps(self.record(key, row), sort_keys=True) + "\n")

    def write_batch(self, path: str, new: int, duplicates: int) -> tuple[int, int]:
        """Write an append batch of `new` unseen keys and `duplicates`
        keys already in the catalog, shuffled; returns (new, duplicates).
        The new records count as present from here on."""
        fresh = [self._new_row(self.rng.choice((3, 4, 5))) for _ in range(new)]
        dupes = [
            dict(self.record(k), middle_betti=0)
            for k in self.rng.sample(self.keys, duplicates)
        ]
        for key, row in fresh:
            self._remember(key, row)
        batch = [self.record(key, row) for key, row in fresh] + dupes
        self.rng.shuffle(batch)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in batch:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return new, duplicates

    def row_problem(self, row: dict) -> str | None:
        """Why a `catalog query` output row differs from the record
        written under its key, or None when it agrees."""
        stored = self.rows.get(row["key"])
        if stored is None:
            return "unknown key %s" % row["key"]
        sign, betti, torsion, sphere, residue, signature = stored
        if residue is not None:
            sphere += "[%d]" % residue
        want = {
            "key": row["key"],
            "sign": sign,
            "betti": betti,
            "torsion": torsion,
            "sphere": sphere,
            "signature": signature,
        }
        return None if row == want else "row %r, written %r" % (row, want)
