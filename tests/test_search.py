"""Family searches, budget refusal and the seven-sphere sweep."""

import itertools
import json
import tracemalloc
from math import gcd

import pytest

from linkatlas import bp_link
from linkatlas import search as search_module
from linkatlas.betti import betti
from linkatlas.catalog import build_record, parse_key, record_cost, record_filter
from linkatlas.links import BPExponents, bp_key, canonical_key
from linkatlas.cli import main
from linkatlas.errors import BoundsTooLarge, InvalidInput
from linkatlas.search import (
    FAMILIES,
    Family,
    Member,
    check_budget,
    run_search,
    seven_sphere_sweep,
)
from search_oracle import assert_same_search, naive_search


BOX = {"a0": (2, 12), "a1": (2, 12), "a2": (3, 14)}


def _coprime_box_keys():
    spans = (range(lo, hi + 1) for lo, hi in BOX.values())
    return {
        "bp:%d,%d,%d" % tuple(sorted(t))
        for t in itertools.product(*spans)
        if gcd(t[0], t[1]) == gcd(t[0], t[2]) == gcd(t[1], t[2]) == 1
    }


def test_pairwise_coprime_predicate_matches_a_gcd_filter():
    result = run_search("bp-box", BOX, pairwise_coprime=True)
    assert result.examined == 11 * 11 * 12
    assert result.witnesses == {}  # three exponents: no bp8 class
    assert {r.key for r in result.records} == _coprime_box_keys()
    # the flag combines with the record filters
    positive = run_search("bp-box", BOX, sign="positive", pairwise_coprime=True)
    assert {r.key for r in positive.records} == {"bp:2,3,5"}


def test_pairwise_coprime_flag_matches_a_gcd_filter(capsys):
    bounds = ",".join("%s=%d:%d" % (k, lo, hi) for k, (lo, hi) in BOX.items())
    main(["search", "--family", "bp-box", "--bounds", bounds, "--pairwise-coprime", "--json"])
    payload = json.loads(capsys.readouterr().out)
    keys = {row["key"] for row in payload["records"]}
    assert keys == _coprime_box_keys()
    assert payload["matched"] == len(keys)


def test_237m_positive_count():
    # 1/2 + 1/3 + 1/7 + 1/m > 1 for every m up to 41
    result = run_search("237m", {"m": (5, 41)}, sign="positive")
    assert result.examined == 37
    assert result.matched == 37


def test_237m_coprime_count_and_note():
    result = run_search("237m", {"m": (5, 41)}, min_coprime_fixed=2)
    assert result.matched == 28
    assert result.examined == 28
    assert any("27" in note for note in result.notes)


def test_237m_coprime_matches_brute_force():
    from math import gcd

    expected = sum(
        1
        for m in range(5, 42)
        if sum(1 for q in (2, 3, 7) if gcd(m, q) == 1) >= 2
    )
    assert run_search("237m", {"m": (5, 41)}, min_coprime_fixed=2).matched == expected


def test_pqr_family_member():
    result = run_search("pqrpqr", {"p": (2, 2), "q": (3, 3), "r": (11, 11)})
    assert result.matched == 1
    rec = result.records[0]
    assert rec.key == "bp:2,3,11,66"
    assert rec.middle_betti == 20


def test_pqr_family_skips_non_coprime():
    members = FAMILIES["pqrpqr"].generate({"p": (2, 4), "q": (3, 6), "r": (5, 7)})
    triples = [m.exponents[:3] for m in members]
    assert (2, 4, 5) not in [t[:3] for t in triples]
    assert all(len({p, q, r}) == 3 for p, q, r in triples)


def test_k1p_families_members_in_order():
    # (k, ..., k, k+1, p): two k's for kkk1p, three for kkkk1p
    bounds = {"k": (2, 3), "p": (5, 6)}
    for family, count in (("kkk1p", 2), ("kkkk1p", 3)):
        members = list(FAMILIES[family].generate(bounds))
        assert [m.exponents for m in members] == [
            (k,) * count + (k + 1, p) for k in (2, 3) for p in (5, 6)
        ]
        ends = [(m.exponents[0], m.exponents[-1]) for m in members]
        assert ends == [(k, p) for k in (2, 3) for p in (5, 6)]
        assert all(m.fixed == (k, k + 1) for m, (k, _) in zip(members, ends))
        assert [m.varying for m in members] == [5, 6, 5, 6]


def test_bp_box_dedupes_permutations():
    result = run_search("bp-box", {"a0": (2, 3), "a1": (2, 3)})
    assert result.examined == 4
    # (2,3) and (3,2) share the canonical key bp:2,3
    assert result.matched == 3
    assert [r.key for r in result.records] == ["bp:2,2", "bp:2,3", "bp:3,3"]


# boxes of 3, 4 and 5 exponents whose spans differ, so most keys are
# reached first by an unsorted spelling, and a kervaire window where
# permuted r_i give the same key
_ORACLE_SPECS = {
    "box3": ("bp-box", {"a0": (3, 9), "a1": (2, 7), "a2": (2, 8)}),
    "box4": ("bp-box", {"a0": (3, 5), "a1": (2, 4), "a2": (2, 5), "a3": (2, 3)}),
    "box5": ("bp-box", {"a0": (3, 5), "a1": (2, 3), "a2": (2, 3), "a3": (2, 3), "a4": (2, 5)}),
    "kervaire": ("kervaire", {"r1": (1, 2), "r2": (1, 3), "a": (2, 5)}),
}
_ORACLE_FILTERS = {
    "none": {},
    "sign-negative": dict(sign="negative"),
    "sign-positive": dict(sign="positive"),
    "betti-0": dict(middle_betti=0),
    "pairwise-coprime": dict(pairwise_coprime=True),
    "negative-coprime": dict(sign="negative", pairwise_coprime=True),
}


@pytest.mark.parametrize("filters", _ORACLE_FILTERS.values(), ids=_ORACLE_FILTERS)
@pytest.mark.parametrize("family, bounds", _ORACLE_SPECS.values(), ids=_ORACLE_SPECS)
def test_run_search_matches_the_naive_loop(family, bounds, filters):
    got = run_search(family, bounds, **filters)
    assert_same_search(got, naive_search(family, bounds, **filters))


def test_oracle_boxes_hold_permuted_keys_and_unsorted_witnesses():
    # what the comparison above relies on to mean anything
    for family, bounds in _ORACLE_SPECS.values():
        members = [m.exponents for m in FAMILIES[family].generate(bounds)]
        assert len({bp_key(e) for e in members}) < len(members), family
    family, bounds = _ORACLE_SPECS["kervaire"]
    members = list(FAMILIES[family].generate(bounds))
    assert (len(members), len({bp_key(m.exponents) for m in members})) == (20, 14)
    witnesses = run_search(*_ORACLE_SPECS["box5"]).witnesses
    assert any(list(w) != sorted(w) for w in witnesses.values())


def test_kkkk1p_sweep_window_matches_the_naive_loop():
    bounds = {"k": (2, 5), "p": (2, 40)}
    for filters in (dict(min_coprime_fixed=2), dict(min_coprime_fixed=1, sign="negative")):
        got = run_search("kkkk1p", bounds, **filters)
        assert_same_search(got, naive_search("kkkk1p", bounds, **filters))


def test_a_search_builds_each_key_once_in_every_call(monkeypatch, capsys):
    calls = []

    def counted(source):
        calls.append(source)
        return build_record(source)

    monkeypatch.setattr(search_module, "build_record", counted)
    argv = ["search", "--family", "bp-box", "--bounds", "a0=2:6,a1=2:6,a2=2:6", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["examined"] == 125
    # the multisets of three exponents from 2..6
    assert len(calls) == 35
    assert len({canonical_key(e) for e in calls}) == 35
    # nothing is kept from one call to the next
    assert main(argv) == 0
    assert len(calls) == 70


def test_budget_charges_each_distinct_key_once(capsys):
    spans = {"a0": (4, 9), "a1": (2, 7), "a2": (3, 8)}
    keys = {
        tuple(sorted(t))
        for t in itertools.product(*(range(lo, hi + 1) for lo, hi in spans.values()))
    }
    cost = sum(record_cost(BPExponents(k)) for k in keys)
    members = FAMILIES["bp-box"].generate(spans)
    per_member = sum(record_cost(BPExponents(m.exponents)) for m in members)
    assert cost < per_member
    bounds = ",".join("%s=%d:%d" % (k, lo, hi) for k, (lo, hi) in spans.items())
    argv = ["search", "--family", "bp-box", "--bounds", bounds, "--json"]
    assert main(argv + ["--budget", str(cost - 1)]) == 3
    assert "estimated cost %d exceeds" % cost in capsys.readouterr().err
    assert main(argv + ["--budget", str(cost)]) == 0
    assert json.loads(capsys.readouterr().out)["matched"] == len(keys)


def test_search_deterministic():
    a = run_search("237m", {"m": (5, 30)}, sign="positive")
    b = run_search("237m", {"m": (5, 30)}, sign="positive")
    stripped = lambda res: [(r.key, r.middle_betti, r.sign) for r in res.records]
    assert stripped(a) == stripped(b)


def test_search_budget_refusal():
    with pytest.raises(BoundsTooLarge):
        run_search("237m", {"m": (5, 41)}, budget=10)


def test_bounds_refused_before_enumeration(monkeypatch, capsys):
    # reversed spans hold no tuples: they stay invalid input, however long
    reversed_spans = {"a0": (3000, 2), "a1": (3000, 2)}
    with pytest.raises(InvalidInput):
        run_search("bp-box", reversed_spans)

    def never(bounds):
        pytest.fail("members enumerated before the bounds were charged")
        yield

    monkeypatch.setitem(FAMILIES, "bp-box", Family(never))
    bounds = {"a%d" % i: (2, 1001) for i in range(3)}  # 10^9 tuples
    with pytest.raises(BoundsTooLarge):
        run_search("bp-box", bounds)
    argv = ["search", "--family", "bp-box", "--bounds", "a0=2:1001,a1=2:1001,a2=2:1001"]
    assert main(argv) == 3
    assert "budget" in capsys.readouterr().err


def test_budget_estimate_counts_signature_cost():
    # 3 * 2^3 for the Betti sum plus 3 prefix build steps and 2 loop items
    assert check_budget([BPExponents((5, 3, 2))], 10**6) == 24 + 5


def test_min_coprime_fixed_needs_varying_parameter(monkeypatch):
    # the refusal reads the family, not its members: a window with no
    # members is refused too
    for family, bounds in (
        ("bp-box", {"a0": (2, 3), "a1": (2, 3)}),
        ("pqrpqr", {"p": (2, 3), "q": (2, 3), "r": (2, 3)}),
        ("pqrpqr", {"p": (2, 3), "q": (3, 5), "r": (5, 7)}),
    ):
        with pytest.raises(InvalidInput, match="no varying parameter"):
            run_search(family, bounds, min_coprime_fixed=1)

    def never(bounds):
        pytest.fail("members generated before min_coprime_fixed was refused")
        yield

    monkeypatch.setitem(FAMILIES, "bp-box", Family(never))
    box = {"a0": (2, 3), "a1": (2, 3)}
    with pytest.raises(InvalidInput, match="no varying parameter"):
        run_search("bp-box", box, min_coprime_fixed=1)
    # a family with a varying parameter passes the check, members or none
    monkeypatch.setitem(FAMILIES, "bp-box", Family(lambda bounds: iter(()), varying=True))
    assert run_search("bp-box", box, min_coprime_fixed=1).examined == 0


@pytest.mark.parametrize(
    "given, says, flag",
    [
        (dict(min_coprime_fixed=-3), "min_coprime_fixed must be", ["--min-coprime-fixed", "-3"]),
        (dict(min_coprime_fixed=-1, middle_betti=0), "at least 0, got -1",
         ["--min-coprime-fixed", "-1"]),
        (dict(middle_betti=-1), "middle_betti must be", ["--betti", "-1"]),
        (dict(min_coprime_fixed=-3, middle_betti=-1), "must be", ["--betti", "-1"]),
        (dict(sign="positve"), "sign must be one of", ["--sign", "positve"]),
        (dict(middle_betti="3"), "middle_betti must be", None),
        (dict(min_coprime_fixed=1.0), "min_coprime_fixed must be", None),
    ],
    ids=["coprime-negative", "coprime-minus-one", "betti-negative", "both-negative",
         "unknown-sign", "betti-text", "coprime-float"],
)
def test_a_predicate_refuses_what_the_parser_refuses(capsys, given, says, flag):
    # the values are refused before the bounds, here far over the budget,
    # are charged
    with pytest.raises(InvalidInput, match=says):
        run_search("237m", {"m": (5, 10**9)}, **given)
    if flag is not None:
        with pytest.raises(SystemExit) as exc:
            main(["search", "--family", "237m", "--bounds", "m=5:9", *flag])
        assert exc.value.code == 2
    # the least values the parser takes are taken
    least = run_search("237m", {"m": (5, 9)}, middle_betti=0, min_coprime_fixed=0)
    assert least.examined == 5


def test_an_unknown_filter_keyword_is_a_type_error():
    with pytest.raises(TypeError, match="'kind'"):
        run_search("237m", {"m": (5, 9)}, kind="standard_sphere")
    with pytest.raises(TypeError, match="'sphere_kind'"):
        seven_sphere_sweep({"k": (2, 3), "p": (2, 9)}, sphere_kind="standard_sphere")


def test_the_search_filters_are_the_catalog_filters():
    # sphere has no search flag: the search takes it from catalog.FILTERS
    box = dict.fromkeys(("a0", "a1", "a2", "a3"), (2, 7))
    every = run_search("bp-box", box).records
    for kind in ("standard_sphere", "kervaire_sphere", "rational_homology_sphere"):
        keep = record_filter(sphere=kind)
        want = tuple(rec for rec in every if keep(rec))
        assert want, kind
        assert run_search("bp-box", box, sphere=kind).records == want
    with pytest.raises(InvalidInput, match="sphere must be one of"):
        run_search("bp-box", box, sphere="sphere")


def test_a_search_holds_no_list_of_members(monkeypatch):
    calls = []

    def spellings(bounds):
        ((lo, hi),) = bounds.values()
        spellings = itertools.cycle(itertools.permutations((2, 3, 5)))
        for _, exps in zip(range(lo, hi + 1), spellings):
            yield Member(exps)

    def counted(source):
        calls.append(source)
        return build_record(source)

    monkeypatch.setitem(FAMILIES, "one-key", Family(spellings))
    monkeypatch.setattr(search_module, "build_record", counted)
    tracemalloc.start()
    try:
        result = run_search("one-key", {"n": (1, 50_000)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.examined, result.matched) == (50_000, 1)
    assert calls == [BPExponents((2, 3, 5))]
    # a list of 50,000 members alone takes about 9 MB
    assert peak < 1_000_000


def test_pairwise_coprime_builds_and_charges_only_coprime_keys(monkeypatch, capsys):
    calls = []

    def counted(source):
        calls.append(source)
        return build_record(source)

    monkeypatch.setattr(search_module, "build_record", counted)
    argv = ["search", "--family", "bp-box", "--bounds", "a0=2:6,a1=2:6,a2=2:6",
            "--pairwise-coprime", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["examined"] == 125
    keys = [row["key"] for row in payload["records"]]
    assert keys == ["bp:2,3,5", "bp:3,4,5"]
    assert sorted(canonical_key(e) for e in calls) == keys
    # the budget is charged for those keys alone; this box's coprime keys
    # cost more than its 180 parameter tuples, so the key charge decides
    spans = {"a0": (2, 7), "a1": (2, 7), "a2": (5, 9)}
    coprime = {
        tuple(sorted(t))
        for t in itertools.product(*(range(lo, hi + 1) for lo, hi in spans.values()))
        if gcd(t[0], t[1]) == gcd(t[0], t[2]) == gcd(t[1], t[2]) == 1
    }
    cost = sum(record_cost(BPExponents(k)) for k in coprime)
    assert cost > 180
    argv[4] = ",".join("%s=%d:%d" % (k, lo, hi) for k, (lo, hi) in spans.items())
    assert main(argv + ["--budget", str(cost - 1)]) == 3
    assert "estimated cost %d exceeds" % cost in capsys.readouterr().err
    assert main(argv + ["--budget", str(cost)]) == 0
    assert json.loads(capsys.readouterr().out)["matched"] == len(coprime)


def test_unknown_family_rejected():
    with pytest.raises(InvalidInput):
        run_search("nope", {"m": (2, 3)})


def test_kervaire_family_verdicts():
    result = run_search("kervaire", {"r1": (3, 3), "r2": (5, 5), "a": (7, 11)})
    # the Betti-0 members here (a = 7, 11) are homotopy spheres
    for rec in result.records:
        if rec.middle_betti != 0:
            assert rec.sphere.kind == "not_a_sphere"
        else:
            assert rec.sphere.kind in (
                "standard_sphere", "kervaire_sphere", "rational_homology_sphere"
            )
    assert len(result.records) == 5


# small bounds for every family
_FAMILY_BOUNDS = {
    "bp-box": {"a0": (2, 4), "a1": (2, 6), "a2": (2, 8), "a3": (3, 10)},
    "237m": {"m": (5, 41)},
    "kkk1p": {"k": (2, 4), "p": (2, 30)},
    "kkkk1p": {"k": (2, 4), "p": (2, 30)},
    "pqrpqr": {"p": (2, 5), "q": (2, 7), "r": (2, 11)},
    "kervaire": {"r1": (1, 3), "r2": (1, 5), "a": (3, 9)},
}


def test_every_searched_record_is_a_function_of_its_key():
    # no family adjusts a record: the key alone rebuilds it
    assert _FAMILY_BOUNDS.keys() == FAMILIES.keys()
    for family, bounds in _FAMILY_BOUNDS.items():
        records = run_search(family, bounds).records
        assert records, family
        for rec in records:
            assert build_record(parse_key(rec.key)) == rec


def test_tiny_sweep_is_incomplete():
    sweep = seven_sphere_sweep({"k": (2, 2), "p": (2, 3)})
    assert len(sweep.witnesses) < 28


def test_sweep_witnesses_are_spheres():
    sweep = seven_sphere_sweep({"k": (2, 3), "p": (2, 40)})
    assert len(sweep.witnesses) >= 1
    for residue, exps in sweep.witnesses.items():
        assert 0 <= residue < 28
        assert betti(bp_link(exps)).middle_betti == 0


def test_every_coprime_kkkk1p_member_has_a_residue():
    # with p coprime to k and k+1, both are isolated vertices of
    # Brieskorn's graph, so every member is a homotopy 7-sphere
    bounds = {"k": (2, 8), "p": (2, 200)}
    records = run_search("kkkk1p", bounds, min_coprime_fixed=2).records
    assert records
    for rec in records:
        assert rec.sphere.bp8_residue is not None, rec.key


def test_sweep_examines_what_run_search_examines():
    bounds = {"k": (3, 4), "p": (20, 60)}
    sweep = seven_sphere_sweep(bounds)
    assert sweep == run_search("kkkk1p", bounds, min_coprime_fixed=2)
    # each witness is the first member of its residue in (k, p) order
    first = {}
    for m in FAMILIES["kkkk1p"].generate(bounds):
        if gcd(m.varying, m.fixed[0]) == gcd(m.varying, m.fixed[1]) == 1:
            residue = build_record(BPExponents(m.exponents)).sphere.bp8_residue
            first.setdefault(residue, m.exponents)
    assert sweep.witnesses == first


def test_sweep_applies_the_search_filters():
    bounds = {"k": (2, 8), "p": (2, 200)}
    negative = seven_sphere_sweep(bounds, sign="negative")
    assert negative.witnesses
    assert all(rec.sign == "negative" for rec in negative.records)
    # min_coprime_fixed is the sweep's own, whatever the caller says
    loose = seven_sphere_sweep(bounds, min_coprime_fixed=0)
    assert loose == seven_sphere_sweep(bounds)
