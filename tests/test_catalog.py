"""InvariantRecord construction and the JSONL catalog."""

import base64
import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import time
from array import array
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from linkatlas import eta_fit, heisenberg_algebra
import linkatlas.catalog as catalog_module
from linkatlas.catalog import (
    FILTERS,
    InvariantRecord,
    ReadResult,
    _load_index,
    _stamp,
    build_record,
    catalog_append,
    catalog_query,
    read_catalog,
    record_cost,
    record_filter,
    reverify_record,
)
from linkatlas.cli import main as cli_main
from linkatlas.errors import InconsistentInvariants, InvalidInput
from linkatlas.eta import null_constants
from linkatlas.links import BPExponents, WeightSystem, parse_link
from linkatlas.search import run_search
from linkatlas.spheres import SphereVerdict


def test_build_record_poincare():
    rec = build_record(BPExponents((5, 3, 2)))
    assert rec.key == "bp:2,3,5"
    assert rec.sign == "positive"
    assert rec.middle_betti == 0
    assert rec.torsion == "torsion_free"
    assert rec.sphere.kind == "homology_sphere"
    assert rec.signature == -8
    assert rec.constants_note is None


def test_build_record_null_link():
    rec = build_record(BPExponents((2, 3, 7, 42)))
    assert rec.sign == "null"
    assert rec.constants_note == "null structure: (lambda, nu) = (-2, 6)"
    assert rec.signature is None  # nvars 4 has no signature


@pytest.mark.parametrize("nvars, lo, hi", [(2, 2, 4), (3, 2, 6), (4, 2, 6), (5, 4, 6)])
def test_null_notes_are_the_eta_null_constants(nvars, lo, hi):
    bounds = {"a%d" % i: (lo, hi) for i in range(nvars)}
    result = run_search("bp-box", bounds, sign="null")
    assert result.records
    # nvars exponents cut out a link of dimension 2 nvars - 3 = 2n + 1
    n = nvars - 2
    for rec in result.records:
        if n == 0:
            assert rec.constants_note is None
            continue
        c = null_constants(n)
        assert c.lam + c.nu == 2 * n
        assert rec.constants_note == (
            "null structure: (lambda, nu) = (%s, %s)" % (c.lam, c.nu)
        )


def test_null_note_of_bp333_is_the_heisenberg_fit():
    # the 3-dimensional null link carries the constants the Heisenberg
    # frame H(1) fits exactly
    fit = eta_fit(heisenberg_algebra(1))
    assert fit.is_eta_einstein and (fit.lam, fit.nu) == (-2, 4)
    rec = build_record(BPExponents((3, 3, 3)))
    assert rec.sign == "null"
    assert rec.constants_note == (
        "null structure: (lambda, nu) = (%s, %s)" % (fit.lam, fit.nu)
    )
    assert build_record(BPExponents((2, 2))).constants_note is None


def test_build_record_weight_system():
    rec = build_record(WeightSystem((13, 43, 101, 158), 316))
    assert rec.key == "w:13,43,101,158@316"
    assert rec.middle_betti == 1
    assert rec.sphere.kind == "not_a_sphere"
    assert rec.signature is None


def test_build_record_seven_sphere():
    rec = build_record(BPExponents((2, 2, 2, 3, 5)))
    assert rec.middle_betti == 0
    assert rec.sphere.kind == "rational_homology_sphere"
    assert rec.sphere.bp8_residue == 1
    assert rec.signature == 8


def test_record_json_round_trip():
    rec = build_record(BPExponents((5, 3, 2)))
    again = InvariantRecord.from_json(json.loads(json.dumps(rec.to_json())))
    assert again == rec


def test_from_json_validation():
    # each corrupt-line message, exactly: a catalog line reports it
    good = build_record(BPExponents((5, 3, 2))).to_json()
    residue = {"kind": "rational_homology_sphere", "bp8_residue": None}
    cases = [
        *(
            (lambda o, name=name: o.pop(name), "missing field %r" % name)
            for name in ("key", "sign", "middle_betti", "torsion", "sphere")
        ),
        (lambda o: o.update(key=5), "bad key 5"),
        (lambda o: o.update(key=None), "bad key None"),
        (lambda o: o.update(key="bp:5,3,2"), "bad key 'bp:5,3,2'"),
        (lambda o: o.update(key="bp:2,x"), "bad key 'bp:2,x'"),
        (lambda o: o.update(key="w:2,2,2@6"), "bad key 'w:2,2,2@6'"),
        (lambda o: o.update(sign="sideways"), "bad sign 'sideways'"),
        (lambda o: o.update(sign=["null"]), "bad sign ['null']"),
        (lambda o: o.update(middle_betti=True), "bad middle_betti True"),
        (lambda o: o.update(middle_betti=-1), "bad middle_betti -1"),
        (lambda o: o.update(middle_betti=2.0), "bad middle_betti 2.0"),
        (lambda o: o.update(middle_betti="0"), "bad middle_betti '0'"),
        (lambda o: o.update(torsion=3), "bad torsion 3"),
        (lambda o: o.update(torsion=None), "bad torsion None"),
        (lambda o: o.update(sphere="homology_sphere"), "bad sphere 'homology_sphere'"),
        (lambda o: o.update(sphere=["homology_sphere"]), "bad sphere ['homology_sphere']"),
        (lambda o: o.update(sphere={}), "bad sphere {}"),
        (lambda o: o.update(sphere={"kind": "mystery"}), "bad sphere {'kind': 'mystery'}"),
        (lambda o: o.update(sphere={**residue, "bp8_residue": 28}), "bad bp8_residue 28"),
        (lambda o: o.update(sphere={**residue, "bp8_residue": -1}), "bad bp8_residue -1"),
        # a bool is an int to Python, but never a residue
        (lambda o: o.update(sphere={**residue, "bp8_residue": True}), "bad bp8_residue True"),
        (lambda o: o.update(sphere={**residue, "bp8_residue": "1"}), "bad bp8_residue '1'"),
        (lambda o: o.update(signature="eight"), "bad signature 'eight'"),
        (lambda o: o.update(signature=8.0), "bad signature 8.0"),
        (lambda o: o.update(signature=False), "bad signature False"),
        (lambda o: o.update(constants_note=3), "bad constants_note 3"),
        (lambda o: o.update(constants_note=["x"]), "bad constants_note ['x']"),
        (lambda o: o.update(tool_version=5), "bad tool_version 5"),
        (lambda o: o.update(tool_version=None), "bad tool_version None"),
        (lambda o: o.update(timestamp={"a": 1}), "bad timestamp {'a': 1}"),
        # the order of the checks: presence of every required field first,
        # then each field's value in declaration order
        (lambda o: (o.update(key="bp:x"), o.pop("sphere")), "missing field 'sphere'"),
        (lambda o: (o.pop("key"), o.pop("sphere")), "missing field 'key'"),
        (lambda o: o.update(key="bp:x", sign="sideways"), "bad key 'bp:x'"),
        (lambda o: o.update(sign="sideways", middle_betti=-1), "bad sign 'sideways'"),
        (lambda o: o.update(sphere={}, signature="eight"), "bad sphere {}"),
        (lambda o: o.update(sphere={**residue, "bp8_residue": 28}, signature="x"), "bad bp8_residue 28"),
        (lambda o: o.update(tool_version=5, timestamp=5), "bad tool_version 5"),
    ]
    for mutate, message in cases:
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(ValueError) as exc:
            InvariantRecord.from_json(obj)
        assert str(exc.value) == message
    for not_an_object in ([good], "record", None, 5):
        with pytest.raises(ValueError) as exc:
            InvariantRecord.from_json(not_an_object)
        assert str(exc.value) == "record must be an object"


def test_from_json_reads_the_required_fields_alone():
    # the optional fields take their defaults when a line leaves them out,
    # as catalogs written without them (or before they existed) do
    rec = build_record(BPExponents((5, 3, 2)))
    required = {
        "key": rec.key,
        "sign": rec.sign,
        "middle_betti": rec.middle_betti,
        "torsion": rec.torsion,
        "sphere": {"kind": rec.sphere.kind},
    }
    got = InvariantRecord.from_json(required)
    assert got == InvariantRecord(rec.key, rec.sign, rec.middle_betti, rec.torsion, rec.sphere)
    defaults = (None, None, catalog_module.TOOL_VERSION, None)
    assert (got.signature, got.constants_note, got.tool_version, got.timestamp) == defaults


def test_only_canonical_prefixes_are_parsed_as_keys(monkeypatch):
    # a key of another spelling is corrupt before it is parsed: a mono: key
    # would otherwise be solved for its weights, uncharged, on every read
    def no_solve(rows):
        pytest.fail("solve_weights called on a catalog key")

    monkeypatch.setattr("linkatlas.links.solve_weights", no_solve)
    good = build_record(BPExponents((5, 3, 2))).to_json()
    keys = ("mono:[" + ";".join(["1,0,0"] * 60) + "]", "mono:[3,0,0;0,3,0;0,0,3]", "kervaire:1,1@3")
    lines = [json.dumps({**good, "key": key}) for key in keys]
    result = catalog_module.read_records(lines)
    assert result.records == ()
    assert [c.reason for c in result.corrupt] == ["bad key %r" % (key,) for key in keys]


def test_parse_key():
    assert parse_link("bp:2,3,5") == BPExponents((2, 3, 5))
    assert parse_link("w:1,1,4,6@12") == WeightSystem((1, 1, 4, 6), 12)
    with pytest.raises(InvalidInput):
        parse_link("w:1,2,3")
    with pytest.raises(InvalidInput):
        parse_link("elsewhere:1,2")


def test_record_cost():
    # nvars 2^nvars, plus the prefix build (1 + 2 steps) and the last-factor loop (2)
    assert record_cost(BPExponents((5, 3, 2))) == 24 + 5
    # prefix cells capped at 2 lcm: 7 + 49 + 16*7 + 16*8 build steps, 128 loop
    assert record_cost(BPExponents((8, 8, 8, 9, 599))) == 160 + 296 + 128
    assert record_cost(BPExponents((2, 3, 7, 42))) == 64
    assert record_cost(WeightSystem((1, 1, 1), 3)) == 24


def test_build_record_refuses_betti_signature_mismatch(monkeypatch):
    import linkatlas.catalog as catalog
    from linkatlas.spheres import SignatureResult

    real = catalog.brieskorn_signature

    def off_by_one(exps):
        res = real(exps)
        return SignatureResult(res.positive - 1, res.negative)

    monkeypatch.setattr(catalog, "brieskorn_signature", off_by_one)
    with pytest.raises(InconsistentInvariants, match="bp:2,3,5"):
        build_record(BPExponents((5, 3, 2)))
    with pytest.raises(InconsistentInvariants, match="bp:2,2,2,3,5"):
        build_record(BPExponents((2, 2, 2, 3, 5)))


def test_append_idempotent(tmp_path):
    path = str(tmp_path / "atlas.jsonl")
    rec = build_record(BPExponents((5, 3, 2)))
    first = catalog_append(path, [rec])
    assert (first.added, first.skipped) == (1, 0)
    second = catalog_append(path, [rec])
    assert (second.added, second.skipped) == (0, 1)
    data = read_catalog(path)
    assert len(data.records) == 1
    assert data.records[0].timestamp is not None


def test_append_reingest_output_noop(tmp_path):
    path = str(tmp_path / "atlas.jsonl")
    records = [
        build_record(BPExponents(e))
        for e in [(5, 3, 2), (7, 3, 2), (2, 3, 7, 42)]
    ]
    catalog_append(path, records)
    again = catalog_append(path, read_catalog(path).records)
    assert again.added == 0
    assert again.skipped == 3


def test_corrupt_lines_reported_and_skipped(tmp_path):
    path = str(tmp_path / "atlas.jsonl")
    catalog_append(path, [build_record(BPExponents((5, 3, 2)))])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write(json.dumps({"key": "bp:2,3,7", "sign": "nope"}) + "\n")
    catalog_append(path, [build_record(BPExponents((7, 3, 2)))])

    data = read_catalog(path)
    assert [r.key for r in data.records] == ["bp:2,3,5", "bp:2,3,7"]
    assert [bad.lineno for bad in data.corrupt] == [2, 3]
    assert all(bad.reason for bad in data.corrupt)


def test_query_filters(tmp_path):
    path = str(tmp_path / "atlas.jsonl")
    records = [
        build_record(BPExponents(e))
        for e in [(5, 3, 2), (7, 3, 2), (2, 3, 7, 42), (4, 4, 4, 4), (6, 6, 6, 2)]
    ]
    catalog_append(path, records)

    nulls = catalog_query(path, sign="null", nvars=4)
    assert [r.key for r in nulls.records] == [
        "bp:2,3,7,42", "bp:2,6,6,6", "bp:4,4,4,4",
    ]
    reid = catalog_query(path, sign="null", middle_betti=12)
    assert [r.key for r in reid.records] == ["bp:2,3,7,42"]

    k3 = catalog_query(path, middle_betti=21)
    assert [r.key for r in k3.records] == ["bp:2,6,6,6", "bp:4,4,4,4"]

    spheres = catalog_query(path, sphere="homology_sphere")
    assert {r.key for r in spheres.records} == {"bp:2,3,5", "bp:2,3,7"}

    missing = catalog_query(str(tmp_path / "absent.jsonl"))
    assert missing.records == ()


def test_reverify(tmp_path):
    rec = build_record(BPExponents((5, 3, 2)))
    assert reverify_record(rec) == []
    tampered = dataclasses.replace(rec, middle_betti=9, sign="negative")
    issues = reverify_record(tampered)
    assert len(issues) == 2
    assert any("middle_betti" in msg for msg in issues)
    assert any("sign" in msg for msg in issues)


def test_reverify_reports_a_stale_null_note():
    # the note every catalog held before the null rule was mended
    rec = build_record(BPExponents((2, 3, 7, 42)))
    assert rec.constants_note == "null structure: (lambda, nu) = (-2, 6)"
    stale = dataclasses.replace(
        rec, constants_note="null structure: (lambda, nu) = (-2, 8)"
    )
    assert reverify_record(stale) == [
        "constants_note: stored 'null structure: (lambda, nu) = (-2, 8)', "
        "recomputed 'null structure: (lambda, nu) = (-2, 6)'"
    ]


def test_reverify_reports_a_non_canonical_key():
    # stored under bp:7,3,2, the record escapes append dedupe of bp:2,3,7
    rec = dataclasses.replace(build_record(BPExponents((7, 3, 2))), key="bp:7,3,2")
    assert reverify_record(rec) == ["key: stored 'bp:7,3,2', recomputed 'bp:2,3,7'"]


def test_reverify_reports_a_null_note_on_a_negative_record():
    rec = build_record(BPExponents((2, 3, 11)))
    assert rec.sign == "negative" and rec.constants_note is None
    tampered = dataclasses.replace(
        rec, constants_note="null structure: (lambda, nu) = (-2, 4)"
    )
    assert reverify_record(tampered) == [
        "constants_note: stored 'null structure: (lambda, nu) = (-2, 4)', "
        "recomputed None"
    ]


def test_reverify_ignores_the_write_time_fields():
    rec = build_record(BPExponents((5, 3, 2)))
    assert reverify_record(
        dataclasses.replace(rec, tool_version="0.0.1", timestamp="2001-01-01")
    ) == []


# --- the key index beside the catalog ----------------------------------
#
# The oracle is always a fresh read_catalog of the file: whatever the
# index holds, an append must skip exactly the keys the catalog holds
# and report exactly the corrupt lines a full scan reports.


def _recs(*exponents):
    return [build_record(BPExponents(e)) for e in exponents]


def _line(rec):
    return json.dumps(rec.to_json(), sort_keys=True) + "\n"


def _keys(path):
    return [r.key for r in read_catalog(path).records]


def test_index_written_beside_the_catalog(tmp_path):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2), (7, 3, 2)))
    assert (tmp_path / "atlas.jsonl.keys").is_file()
    index = _index_of(path)
    assert index.keys == ["bp:2,3,5", "bp:2,3,7"]
    assert index.corrupt == ()
    assert list(index.columns["nvars"]) == [3, 3]
    assert index.stamp[1] == path.stat().st_size
    # one row per line: two blank lines, a corrupt and a cut line hold no record,
    # so each has code -1 in every column and an empty key
    _append_text(path, "\n  \nnot json\n" + _line(_recs((11, 3, 2))[0])[:30])
    catalog_query(path)  # rebuilds the index
    index = _index_of(path)
    assert index.keys == ["bp:2,3,5", "bp:2,3,7", "", "", "", ""]
    assert [c.lineno for c in index.corrupt] == [5, 6]
    for column in index.columns.values():
        assert list(column)[2:] == [-1] * 4
    # an append ends the cut line, which stays a row of its own
    catalog_append(path, _recs((13, 3, 2)))
    index = _index_of(path)
    assert index.keys == ["bp:2,3,5", "bp:2,3,7", "", "", "", "", "bp:2,3,13"]
    assert list(index.columns["nvars"]) == [3, 3, -1, -1, -1, -1, 3]
    assert index.corrupt == read_catalog(path).corrupt


def test_index_after_delete_and_reappend(tmp_path):
    # the catalog is removed but its .keys file is left behind
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2), (7, 3, 2)))
    path.unlink()
    again = catalog_append(path, _recs((7, 3, 2), (11, 3, 2)))
    assert (again.added, again.skipped) == (2, 0)
    assert _keys(path) == ["bp:2,3,7", "bp:2,3,11"]
    third = catalog_append(path, _recs((5, 3, 2), (11, 3, 2)))
    assert (third.added, third.skipped) == (1, 1)


def test_index_after_external_rewrite_to_larger_content(tmp_path):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2)))
    path.write_text(
        "".join(_line(r) for r in _recs((7, 3, 2), (11, 3, 2), (13, 3, 2))),
        encoding="utf-8",
    )
    result = catalog_append(path, _recs((5, 3, 2), (13, 3, 2)))
    assert (result.added, result.skipped) == (1, 1)
    assert sorted(_keys(path)) == sorted(
        ["bp:2,3,5", "bp:2,3,7", "bp:2,3,11", "bp:2,3,13"]
    )


def test_index_after_same_size_edit_of_one_key(tmp_path):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2), (11, 3, 2)))
    before = path.stat()
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"bp:2,3,5"', '"bp:2,3,7"'), encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert _keys(path) == ["bp:2,3,7", "bp:2,3,11"]

    result = catalog_append(path, _recs((7, 3, 2), (5, 3, 2)))
    assert (result.added, result.skipped) == (1, 1)
    assert _keys(path) == ["bp:2,3,7", "bp:2,3,11", "bp:2,3,5"]


def test_index_after_external_append(tmp_path):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2)))
    with open(path, "a", encoding="utf-8") as fh:  # a shell's >>
        fh.write(_line(build_record(BPExponents((7, 3, 2)))))
    result = catalog_append(path, _recs((7, 3, 2), (11, 3, 2)))
    assert (result.added, result.skipped) == (1, 1)
    assert _keys(path) == ["bp:2,3,5", "bp:2,3,7", "bp:2,3,11"]


def _index_of(path):
    """The index beside the catalog at path, read as a call reads it."""
    return _load_index(path, _stamp(path))


def _index_is_current(path):
    return _index_of(path) is not None


def _with_head(**changes):
    return lambda head, body, index: "\n".join([json.dumps(dict(head, **changes)), *body])


def _with_body(edit):
    return lambda head, body, index: "\n".join([json.dumps(head), *edit(body)])


def _flip(stamp):
    return [stamp[0] ^ 1, *stamp[1:]]


# the index text is a JSON header line, one base64 line per filter
# column, then one line per key; each case below is
# built from a good index of two records: its header, the lines after
# the header (the last one empty) and the index as loaded
@pytest.mark.parametrize(
    "index_text",
    [
        lambda head, body, index: None,  # missing
        lambda head, body, index: "garbage {",
        lambda head, body, index: "\n".join(["[]", *body]),
        lambda head, body, index: _with_head(stamp=_flip(head["stamp"]))(head, body, index),
        _with_head(format="linkatlas-keys/1"),
        # the layout whose appends indexed records without checking them
        _with_head(format="linkatlas-keys/2"),
        # the previous layout, with one row per valid record
        _with_head(format="linkatlas-keys/3"),
        _with_head(byteorder="big" if sys.byteorder == "little" else "little"),
        _with_head(corrupt=[[1]]),
        # the JSON index before the filter columns: keys only, stamp valid
        lambda head, body, index: json.dumps(
            {"stamp": index.stamp, "keys": index.keys, "corrupt": []}
        ),
        # the single JSON object of later versions, stamp valid
        lambda head, body, index: json.dumps(
            {
                "stamp": index.stamp,
                "count": 2,
                "corrupt": [],
                "lines": [1, 2],
                "keys": index.keys,
                **{name: list(column) for name, column in index.columns.items()},
            }
        ),
        # the first column holds one row of two, or three
        _with_body(lambda body: [base64.b64encode(array("i", [0])).decode(), *body[1:]]),
        _with_body(lambda body: [base64.b64encode(array("i", [0] * 3)).decode(), *body[1:]]),
        # a character outside the alphabet, which a lenient decoder skips
        _with_body(lambda body: [body[0], body[1][:4] + "*" + body[1][4:], *body[2:]]),
        _with_body(lambda body: body[:4] + body[5:]),  # one key of two
        _with_body(lambda body: body[:4] + ["bp:2,3,11"] + body[4:]),  # three keys
        _with_body(lambda body: body[:-1]),  # no "\n" after the last key
    ],
    ids=[
        "missing", "garbage", "list", "wrong-stamp", "old-format-tag", "unchecked-layout-tag",
        "row-per-record-layout-tag", "foreign-byte-order", "corrupt-short", "keys-only",
        "old-json-format", "column-short", "column-long", "bad-base64", "too-few-keys",
        "too-many-keys", "cut-short",
    ],
)
def test_unusable_index_means_a_full_scan(tmp_path, index_text):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2), (7, 3, 2)))
    index_path = tmp_path / "atlas.jsonl.keys"
    with open(index_path, encoding="utf-8", newline="\n") as fh:
        head, *body = fh.read().split("\n")
    good = (json.loads(head), body, _index_of(path))
    assert len(body) == len(FILTERS) + 2 + 1

    def spoil():
        text = index_text(*good)
        if text is None:
            index_path.unlink()
        else:
            with open(index_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        assert not _index_is_current(path)

    spoil()
    assert catalog_query(path, nvars=3).records == read_catalog(path).records
    assert catalog_query(path, sign="null").records == ()
    # the query's rescan left a usable index behind
    assert _index_is_current(path)
    assert sorted(_index_of(path).keys) == sorted(_keys(path))

    spoil()
    result = catalog_append(path, _recs((7, 3, 2), (11, 3, 2)))
    assert (result.added, result.skipped) == (1, 1)
    assert _keys(path) == ["bp:2,3,5", "bp:2,3,7", "bp:2,3,11"]
    # the rescan left a usable index behind
    assert _index_is_current(path)
    assert sorted(_index_of(path).keys) == sorted(_keys(path))


@pytest.mark.parametrize(
    "change, reason",
    [
        # its line would span two rows of the index, the too-many-keys case
        # of test_unusable_index_means_a_full_scan
        (dict(key="bp:2,3,7\nbp:2,3,11"), r"bad key 'bp:2,3,7\\nbp:2,3,11'"),
        (dict(key="bp:2,3,\udcff"), r"bad key 'bp:2,3,\\udcff'"),
        (dict(key="bp:7,3,2"), "bad key 'bp:7,3,2'"),
        (dict(sign="Negative"), "bad sign 'Negative'"),
        (dict(sphere=SphereVerdict("exotic")), "bad sphere {'kind': 'exotic'"),
        (dict(sphere=SphereVerdict("homology_sphere", 28)), "bad bp8_residue 28"),
        (dict(sphere="not_a_sphere"), "bad sphere 'not_a_sphere'"),
        (dict(signature=True), "bad signature True"),
        (dict(timestamp=5), "bad timestamp 5"),
    ],
    ids=[
        "newline-key", "surrogate-key", "unsorted-key", "sign-case", "sphere-kind",
        "sphere-residue", "sphere-text", "bool-signature", "int-timestamp",
    ],
)
def test_an_append_refuses_a_record_a_read_calls_corrupt(tmp_path, change, reason):
    path = tmp_path / "atlas.jsonl"
    index_path = tmp_path / "atlas.jsonl.keys"
    catalog_append(path, _recs((5, 3, 2)))
    before = (path.read_bytes(), index_path.read_bytes())
    made = dataclasses.replace(_recs((7, 3, 2))[0], **change)
    with pytest.raises(InvalidInput, match="cannot append .*: " + reason):
        catalog_append(path, [*_recs((11, 3, 2)), made])
    assert (path.read_bytes(), index_path.read_bytes()) == before


def test_a_refused_append_leaves_the_directory_as_it_found_it(tmp_path):
    path = tmp_path / "a.jsonl"
    bad = dataclasses.replace(_recs((7, 3, 2))[0], middle_betti=-1)
    with pytest.raises(InvalidInput, match="'bp:2,3,7': bad middle_betti -1"):
        catalog_append(path, [*_recs((5, 3, 2)), bad])
    assert os.listdir(tmp_path) == []
    # the whole batch is checked, a record whose key is present too
    catalog_append(path, _recs((7, 3, 2)))
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    with pytest.raises(InvalidInput, match="'bp:2,3,7': bad middle_betti -1"):
        catalog_append(path, [bad])
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_a_refused_record_is_never_served_or_written_twice(tmp_path):
    # once written and indexed as given, this record was reported by some
    # filters and not others, and after a rebuild its key was added again
    path = tmp_path / "atlas.jsonl"
    index_path = tmp_path / "atlas.jsonl.keys"
    catalog_append(path, _recs((5, 3, 2)))
    before = (path.read_bytes(), index_path.read_bytes())
    bad = dataclasses.replace(_recs((7, 3, 2))[0], middle_betti=-1)
    with pytest.raises(InvalidInput, match="'bp:2,3,7': bad middle_betti -1"):
        catalog_append(path, [bad])
    assert (path.read_bytes(), index_path.read_bytes()) == before
    _assert_queries_match_a_full_scan(path)
    index_path.unlink()
    assert catalog_append(path, _recs((7, 3, 2))).added == 1
    assert catalog_append(path, _recs((7, 3, 2))).skipped == 1
    assert _keys(path) == ["bp:2,3,5", "bp:2,3,7"]
    _assert_queries_match_a_full_scan(path)


def test_one_append_stamps_its_records_with_one_time(tmp_path, monkeypatch):
    ticks = itertools.count()

    class Clock:  # one second later at each reading
        @staticmethod
        def now(tz):
            return datetime(2001, 1, 1, tzinfo=tz) + timedelta(seconds=next(ticks))

    monkeypatch.setattr(catalog_module, "datetime", Clock)
    path = tmp_path / "atlas.jsonl"
    kept = dataclasses.replace(_recs((11, 3, 2))[0], timestamp="1999-12-31")
    catalog_append(path, [*_recs((5, 3, 2), (7, 3, 2)), kept])
    catalog_append(path, _recs((13, 3, 2)))
    assert [r.timestamp for r in read_catalog(path).records] == [
        "2001-01-01T00:00:00+00:00",
        "2001-01-01T00:00:00+00:00",
        "1999-12-31",
        "2001-01-01T00:00:01+00:00",
    ]


def test_an_index_column_saturates_and_queries_stay_exact(tmp_path):
    path = tmp_path / "atlas.jsonl"
    huge = dataclasses.replace(_recs((5, 3, 2))[0], middle_betti=2**40)
    catalog_append(path, [huge, *_recs((7, 3, 2))])
    assert _index_is_current(path)
    assert list(_index_of(path).columns["middle_betti"]) == [2**31 - 1, 0]
    stored = read_catalog(path, record_filter(middle_betti=2**40)).records
    assert [r.key for r in stored] == ["bp:2,3,5"]
    assert catalog_query(path, middle_betti=2**40) == ReadResult(stored, ())
    # the index picks the line, which its decode then drops
    assert catalog_query(path, middle_betti=2**31 - 1) == ReadResult((), ())


def test_each_call_writes_the_index_at_most_once(tmp_path, monkeypatch):
    saves = []
    save = catalog_module._save_index
    monkeypatch.setattr(
        catalog_module, "_save_index", lambda *args: (saves.append(1), save(*args))
    )
    path = tmp_path / "atlas.jsonl"
    index_path = tmp_path / "atlas.jsonl.keys"

    def saved(call):
        saves.clear()
        call()
        return len(saves)

    # the first append to a new file finds no index and adds records
    assert saved(lambda: catalog_append(path, _recs((5, 3, 2)))) == 1
    assert saved(lambda: catalog_append(path, _recs((7, 3, 2)))) == 1
    assert saved(lambda: catalog_append(path, _recs((7, 3, 2)))) == 0
    assert saved(lambda: catalog_query(path, nvars=3)) == 0
    for call in (
        lambda: catalog_append(path, _recs((11, 3, 2))),
        lambda: catalog_append(path, _recs((11, 3, 2))),
        lambda: catalog_query(path, sign="negative"),
    ):
        index_path.unlink()
        assert saved(call) == 1
        assert _index_is_current(path)
    assert _keys(path) == ["bp:2,3,5", "bp:2,3,7", "bp:2,3,11"]


def test_failed_index_write_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2), (7, 3, 2)))
    _append_text(path, "not json\n")
    index_path = tmp_path / "atlas.jsonl.keys"
    index_path.unlink()
    index_path.mkdir()  # the index can be neither read nor replaced
    scan = read_catalog(path)
    for f in ({}, {"nvars": 3}, {"sign": "negative"}):
        got = catalog_query(path, **f)
        want = sorted(filter(record_filter(**f), scan.records), key=lambda r: r.key)
        assert (list(got.records), got.corrupt) == (want, scan.corrupt)
        assert sorted(os.listdir(tmp_path)) == ["atlas.jsonl", "atlas.jsonl.keys"]
    result = catalog_append(path, _recs((7, 3, 2), (11, 3, 2)))
    assert (result.added, result.skipped, result.corrupt) == (1, 1, scan.corrupt)
    assert sorted(os.listdir(tmp_path)) == ["atlas.jsonl", "atlas.jsonl.keys"]
    assert index_path.is_dir()


def test_unknown_filter_is_refused_before_the_catalog_is_read(tmp_path, monkeypatch):
    import linkatlas.catalog as catalog

    def no_open(*args, **kwargs):
        raise AssertionError("the catalog was opened")

    monkeypatch.setattr(catalog, "open", no_open, raising=False)
    with pytest.raises(TypeError, match="colour"):
        record_filter(colour=1)
    with pytest.raises(TypeError, match="colour"):
        catalog_query(tmp_path / "atlas.jsonl", colour=1)
    with pytest.raises(TypeError, match="colour"):
        catalog_query(tmp_path / "atlas.jsonl", sign="null", colour=None)


@pytest.mark.parametrize(
    "name, value, flag",
    [
        ("middle_betti", -1, ["--betti", "-1"]),
        ("middle_betti", "0", None),
        ("nvars", 1, ["--nvars", "1"]),
        ("nvars", -3, ["--nvars", "-3"]),
        ("sign", "Positive", ["--sign", "Positive"]),
        ("sphere", "exotic_sphere", ["--sphere", "exotic_sphere"]),
    ],
    ids=["betti-negative", "betti-text", "nvars-1", "nvars-negative", "sign-case",
         "sphere-unknown"],
)
def test_a_filter_the_parser_refuses_is_refused_before_the_catalog_is_read(
    tmp_path, monkeypatch, capsys, name, value, flag
):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs((5, 3, 2)))

    def no_open(*args, **kwargs):
        raise AssertionError("the catalog was opened")

    monkeypatch.setattr(catalog_module, "open", no_open, raising=False)
    with pytest.raises(InvalidInput, match="%s must be" % name):
        record_filter(**{name: value})
    with pytest.raises(InvalidInput, match="%s must be" % name):
        catalog_query(path, **{name: value})
    monkeypatch.undo()
    if flag is not None:
        with pytest.raises(SystemExit) as exc:
            cli_main(["catalog", "query", *flag, "--catalog", str(path)])
        assert exc.value.code == 2
    # every table entry, or the least int the parser takes, is taken
    domain = FILTERS[name][1]
    for want in domain if isinstance(domain, tuple) else (domain,):
        assert catalog_query(path, **{name: want}).corrupt == ()


def test_indexed_corrupt_lines_match_a_full_scan(tmp_path):
    path = tmp_path / "atlas.jsonl"
    path.write_bytes(
        _line(build_record(BPExponents((5, 3, 2)))).encode()
        + b"not json\n\n"
        + b'{"key": "bp:2,3,7", "sign": "nope"}\n'
        + b"\xff\xfe\n"
        + b'{"key": "bp:2,3,'  # cut mid-line
    )
    want = read_catalog(path).corrupt
    assert [bad.lineno for bad in want] == [2, 4, 5, 6]
    for batch in ([(7, 3, 2)], [(7, 3, 2), (11, 3, 2)], [(13, 3, 2), (5, 3, 2)]):
        result = catalog_append(path, _recs(*batch))
        assert result.corrupt == want
        assert read_catalog(path).corrupt == want
    assert _keys(path) == ["bp:2,3,5", "bp:2,3,7", "bp:2,3,11", "bp:2,3,13"]


# --- queries served from the index ------------------------------------
#
# The oracle is a full scan: read_catalog of the file, filtered by
# record_filter and sorted by key, with every corrupt line it reports.
# Each comparison first checks that the index is current, so the query
# under test decodes only the lines the index picks.

_FILTERS = [
    dict(zip(("sign", "middle_betti", "sphere", "nvars"), values))
    for values in itertools.product(
        (None, "positive", "null", "negative"),
        (None, 0, 12),
        (None, "homology_sphere", "not_a_sphere", "rational_homology_sphere"),
        (None, 3, 4, 5),
    )
]

_BASE = (
    (5, 3, 2), (7, 3, 2), (3, 3, 3), (2, 3, 7, 42), (4, 4, 4, 4), (2, 2, 2, 3, 5),
)


def _assert_queries_match_a_full_scan(path, filters=_FILTERS):
    scan = read_catalog(path)
    for f in filters:
        assert _index_is_current(path)
        got = catalog_query(path, **f)
        want = sorted(filter(record_filter(**f), scan.records), key=lambda r: r.key)
        assert (list(got.records), got.corrupt) == (want, scan.corrupt), f


def _append_text(path, text):
    with open(path, "a", encoding="utf-8", newline="") as fh:  # a shell's >>
        fh.write(text)


def _rewrite_with_line_ends(path, end):
    text = path.read_text(encoding="utf-8")
    path.write_bytes(text.replace("\n", end).encode())


def _edit_one_key_in_place(path):
    before = path.stat()
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"bp:2,3,5"', '"bp:2,3,9"'), encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size


def _write_corrupt_lines(path):
    path.write_bytes(
        _line(build_record(BPExponents((5, 3, 2)))).encode()
        + b"not json\n\n"
        + b'{"key": "bp:2,3,7", "sign": "nope"}\n'
        + b"\xff\xfe\n"
        + b'{"key": "bp:2,3,'  # cut mid-line
    )


@pytest.mark.parametrize(
    "change",
    [
        lambda path: _append_text(path, _line(build_record(BPExponents((7, 3, 2))))),
        lambda path: _append_text(path, "\n  \n" + _line(_recs((11, 3, 2))[0]) + "\n"),
        _write_corrupt_lines,
        lambda path: _append_text(path, _line(_recs((11, 3, 2))[0])[:30]),
        lambda path: _rewrite_with_line_ends(path, "\r"),
        lambda path: _rewrite_with_line_ends(path, "\r\n"),
        lambda path: _append_text(path, "\n\r"),
        _edit_one_key_in_place,
        lambda path: _append_text(path, _line(_recs((11, 3, 2))[0])),
    ],
    ids=[
        "duplicate-key", "blank-lines", "corrupt-lines", "partial-last-line",
        "cr-endings", "crlf-endings", "cr-last", "same-size-edit", "external-append",
    ],
)
def test_index_served_queries_match_a_full_scan(tmp_path, change):
    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs(*_BASE))
    change(path)
    catalog_query(path)  # rescans a changed catalog and writes its index
    for batch in ([(6, 6, 6, 2), (5, 3, 2)], [(2, 3, 6), (2, 2, 2, 3, 7), (13, 3, 2)]):
        catalog_append(path, _recs(*batch))
        _assert_queries_match_a_full_scan(path)
    # the same after an append that found the index stale and rescanned
    change(path)
    catalog_append(path, _recs((2, 2, 2, 3, 11), (2, 2, 2, 3, 13)))
    _assert_queries_match_a_full_scan(path)


def test_an_index_served_query_decodes_only_the_lines_it_returns(tmp_path, monkeypatch):
    import linkatlas.catalog as catalog

    path = tmp_path / "atlas.jsonl"
    catalog_append(path, _recs(*_BASE))
    _append_text(path, _line(_recs((7, 3, 2))[0]))  # a second bp:2,3,7 line
    catalog_query(path)  # writes the index
    picked = []
    real = catalog.read_catalog

    def spy(path, keep=None, picks=None):
        picked.append(picks)
        return real(path, keep, picks)

    monkeypatch.setattr(catalog, "read_catalog", spy)
    for f in _FILTERS:
        got = catalog_query(path, **f)
        assert sum(picked.pop()) == len(got.records), f


def test_queries_between_appends_match_a_full_scan(tmp_path):
    path = tmp_path / "atlas.jsonl"
    pool = list(_produced_records())
    rng = random.Random(5)
    for _ in range(12):
        catalog_append(path, rng.sample(pool, 12))
        _assert_queries_match_a_full_scan(path, rng.sample(_FILTERS, 8))
    assert len(_keys(path)) == len(set(_keys(path))) > 60


_APPENDER = """
import sys
from linkatlas.catalog import InvariantRecord, catalog_append
from linkatlas.spheres import SphereVerdict

path, lo, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.stdin.readline()  # start together
added = 0
for start in range(lo, hi, 40):
    batch = [
        InvariantRecord("bp:2,3,%d" % c, "positive", 0, "torsion_free",
                        SphereVerdict("homology_sphere"))
        for c in range(start, min(start + 40, hi))
    ]
    added += catalog_append(path, batch).added
print(added)
"""


def test_two_processes_append_overlapping_batches(tmp_path):
    # each batch of one process shares half its keys with a batch of the
    # other that is appended at about the same time
    path = tmp_path / "atlas.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _APPENDER, str(path), str(lo), str(hi)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for lo, hi in ((7, 1207), (27, 1227))
    ]
    for p in procs:
        p.stdin.write("go\n")
        p.stdin.flush()
    added = [int(p.communicate()[0]) for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    keys = _keys(path)
    assert len(keys) == len(set(keys)) == 1220
    assert set(keys) == {"bp:2,3,%d" % c for c in range(7, 1227)}
    assert sum(added) == 1220
    assert read_catalog(path).corrupt == ()


def test_queries_during_appends_see_whole_batches(tmp_path):
    # one process appends 40-record batches while this one queries; a
    # query must never see part of a batch, or a half-written line
    path = tmp_path / "atlas.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", _APPENDER, str(path), "7", "1207"],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    proc.stdin.write("go\n")
    proc.stdin.flush()
    filters = ({}, {"sign": "positive", "nvars": 3}, {"middle_betti": 0})
    seen = []
    deadline = time.monotonic() + 60
    while proc.poll() is None and time.monotonic() < deadline:
        result = catalog_query(path, **filters[len(seen) % 3])
        seen.append(len(result.records))
        assert result.corrupt == ()
    assert int(proc.communicate(timeout=60)[0]) == 1200
    assert proc.returncode == 0
    assert seen and all(n % 40 == 0 for n in seen)
    assert len(catalog_query(path, sign="positive", nvars=3).records) == 1200


def _produced_records():
    """Records as the producers build them: bp-box searches over 2 to 5
    exponents, a kervaire search (standard and Kervaire spheres), and
    weight systems."""
    for n, hi in ((2, 7), (3, 5), (4, 4), (5, 3)):
        bounds = {"a%d" % i: (2, hi) for i in range(n)}
        yield from run_search("bp-box", bounds).records
    kervaire = {"r1": (1, 3), "r2": (1, 5), "a": (3, 9)}
    yield from run_search("kervaire", kervaire).records
    for key in ("w:1,1,1@3", "w:6,10,15@30", "w:1,1,4,6@12", "w:13,43,101,158@316"):
        yield build_record(parse_link(key))


def test_every_produced_record_reads_back():
    # a producer must never emit a sign or sphere kind the reader rejects
    seen = set()
    for rec in _produced_records():
        again = InvariantRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert again == rec
        seen.add((rec.sign, rec.sphere.kind))
    assert {sign for sign, _ in seen} == {"positive", "null", "negative"}
    assert {kind for _, kind in seen} >= {
        "standard_sphere",
        "kervaire_sphere",
        "homology_sphere",
        "rational_homology_sphere",
        "not_a_sphere",
    }
