"""Sweeping link families and keeping the results in a catalog.

Searches run over named parameter families under an explicit work
budget; anything the budget cannot cover raises instead of silently
truncating.  Matched links become JSONL records keyed by their
canonical form, and the catalog can be queried and reverified later.
"""

import pathlib
import tempfile

from linkatlas.catalog import catalog_append, catalog_query, reverify_record
from linkatlas.search import run_search


def main():
    # The (2,3,7,m) family: count members whose last exponent is coprime
    # to at least two of the fixed ones.  The search attaches a note
    # about a previously published count for this family.
    result = run_search("237m", {"m": (5, 41)}, min_coprime_fixed=2)
    print("(2,3,7,m), m in [5,41]: %d matched of %d examined"
          % (result.matched, result.examined))
    for note in result.notes:
        print("  note:", note)

    # A small positive box, deduplicated by canonical key.
    result = run_search(
        "bp-box", {"a0": (2, 3), "a1": (2, 3), "a2": (2, 2)}, sign="positive"
    )
    print()
    print("bp box: %d matched" % result.matched)
    for rec in result.records:
        print("  %s  b = %d  %s  %s" % (rec.key, rec.middle_betti,
                                        rec.sign, rec.sphere.kind))

    # Persist records, idempotently, then query the file back.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "atlas.jsonl"
        report = catalog_append(path, result.records)
        print()
        print("appended %d, skipped %d" % (report.added, report.skipped))
        report = catalog_append(path, result.records)
        print("re-appended %d, skipped %d (idempotent)"
              % (report.added, report.skipped))

        hits = catalog_query(str(path), sign="positive").records
        print("query sign=positive:", [r.key for r in hits])

        # Reverification recomputes every stored invariant from the key
        # alone; a record is a function of its key, whatever search wrote it.
        issues = [issue for rec in hits for issue in reverify_record(rec)]
        print("reverify issues:", issues or "none")


if __name__ == "__main__":
    main()
