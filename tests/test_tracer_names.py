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
    from linkatlas import BPExponents, build_record, catalog

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
