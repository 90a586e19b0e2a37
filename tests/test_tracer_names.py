"""The names the traced benchmark wraps must keep resolving: a refactor
that renames or moves one breaks `perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_wrapped_name_resolves(tracer):
    assert tracer.WRAPS
    for path in tracer.WRAPS:
        owner, attr = tracer._resolve(path)
        assert callable(getattr(owner, attr)), path


def test_catalog_files_open_in_counted_modes(tracer, tmp_path, monkeypatch):
    # the traced benchmark counts catalog bytes through an `open` that
    # takes only the text modes r, w and a
    from linkatlas import catalog
    from linkatlas.catalog import build_record
    from linkatlas.links import BPExponents

    counter = tracer.ByteCounter()
    monkeypatch.setattr(catalog, "open", counter.open, raising=False)
    path = tmp_path / "atlas.jsonl"
    records = [build_record(BPExponents(e)) for e in ((5, 3, 2), (7, 3, 2), (11, 3, 2))]
    assert catalog.catalog_append(path, records[:2]).added == 2
    assert catalog.catalog_append(path, records[1:]).added == 1
    query = catalog.catalog_query(path, sign="negative")
    assert [r.key for r in query.records] == ["bp:2,3,11", "bp:2,3,7"]
    read, written = counter.totals()
    assert read > 0 and written > path.stat().st_size


def test_a_query_that_rebuilds_the_index_reads_the_catalog_twice(
    tracer, tmp_path, monkeypatch
):
    # once for the stamp, once for the rebuild, whose read answers the
    # query: the matched lines are not read a third time
    from linkatlas import catalog
    from linkatlas.catalog import build_record
    from linkatlas.links import BPExponents

    path = tmp_path / "atlas.jsonl"
    exponents = [(2, 3, c) for c in range(5, 60)] + [(2, 2, 2, 3, c) for c in range(5, 30)]
    catalog.catalog_append(path, [build_record(BPExponents(e)) for e in exponents])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    index = tmp_path / "atlas.jsonl.keys"
    full = catalog.read_catalog(path)
    for filters in ({}, {"sign": "negative"}, {"nvars": 5, "middle_betti": 0}):
        index.write_text("stale", encoding="utf-8")
        counter = tracer.ByteCounter()
        monkeypatch.setattr(catalog, "open", counter.open, raising=False)
        got = catalog.catalog_query(path, **filters)
        monkeypatch.undo()
        read, written = counter.totals()
        assert read <= 2 * path.stat().st_size + len("stale")
        assert written == index.stat().st_size
        want = sorted(filter(catalog.record_filter(**filters), full.records), key=lambda r: r.key)
        assert (list(got.records), got.corrupt) == (want, full.corrupt)
        assert [bad.lineno for bad in got.corrupt] == [81]
