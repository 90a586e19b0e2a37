"""InvariantRecord construction and the JSONL catalog."""

import json

import pytest

from linkatlas import (
    BPExponents,
    InvariantRecord,
    WeightSystem,
    build_record,
    catalog_append,
    catalog_query,
    read_catalog,
    reverify_record,
)
from linkatlas.catalog import parse_key, record_cost
from linkatlas.errors import InconsistentInvariants, InvalidInput


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
    assert rec.constants_note == "null structure: (lambda, nu) = (-2, 8)"
    assert rec.signature is None  # nvars 4 has no signature


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
    good = build_record(BPExponents((5, 3, 2))).to_json()
    for mutate in (
        lambda o: o.pop("key"),
        lambda o: o.update(sign="sideways"),
        lambda o: o.update(middle_betti=True),
        lambda o: o.update(middle_betti=-1),
        lambda o: o.update(sphere={"kind": "mystery"}),
        lambda o: o.update(sphere={"kind": "rational_homology_sphere", "bp8_residue": 28}),
        lambda o: o.update(signature="eight"),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(ValueError):
            InvariantRecord.from_json(obj)


def test_parse_key():
    assert parse_key("bp:2,3,5") == BPExponents((2, 3, 5))
    assert parse_key("w:1,1,4,6@12") == WeightSystem((1, 1, 4, 6), 12)
    with pytest.raises(InvalidInput):
        parse_key("w:1,2,3")
    with pytest.raises(InvalidInput):
        parse_key("elsewhere:1,2")


def test_record_cost():
    # 2^nvars, plus the prefix build (1 + 2 steps) and the last-factor loop (2)
    assert record_cost(BPExponents((5, 3, 2))) == 8 + 5
    # prefix cells capped at 2 lcm: 7 + 49 + 16*7 + 16*8 build steps, 128 loop
    assert record_cost(BPExponents((8, 8, 8, 9, 599))) == 32 + 296 + 128
    assert record_cost(BPExponents((2, 3, 7, 42))) == 16
    assert record_cost(WeightSystem((1, 1, 1), 3)) == 8


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
    import dataclasses

    tampered = dataclasses.replace(rec, middle_betti=9, sign="negative")
    issues = reverify_record(tampered)
    assert len(issues) == 2
    assert any("middle_betti" in msg for msg in issues)
    assert any("sign" in msg for msg in issues)
