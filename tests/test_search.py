"""Family searches, budget refusal and the seven-sphere sweep."""

import itertools
import json
from math import gcd

import pytest

from linkatlas import (
    BoundsTooLarge,
    Predicate,
    SearchSpec,
    betti,
    bp_link,
    build_record,
    run_search,
    seven_sphere_sweep,
)
from linkatlas.catalog import parse_key
from linkatlas.cli import main
from linkatlas.errors import InvalidInput
from linkatlas.search import FAMILIES, Family, check_budget, _members


BOX = {"a0": (2, 12), "a1": (2, 12), "a2": (3, 14)}


def _coprime_box_keys():
    spans = (range(lo, hi + 1) for lo, hi in BOX.values())
    return {
        "bp:%d,%d,%d" % tuple(sorted(t))
        for t in itertools.product(*spans)
        if gcd(t[0], t[1]) == gcd(t[0], t[2]) == gcd(t[1], t[2]) == 1
    }


def test_pairwise_coprime_predicate_matches_a_gcd_filter():
    spec = SearchSpec("bp-box", BOX, Predicate(pairwise_coprime=True))
    result = run_search(spec)
    assert result.examined == 11 * 11 * 12
    assert {r.key for r in result.records} == _coprime_box_keys()
    # the flag combines with the record filters
    spec = SearchSpec("bp-box", BOX, Predicate(sign="positive", pairwise_coprime=True))
    positive = {r.key for r in run_search(spec).records}
    assert positive == {"bp:2,3,5"}


def test_pairwise_coprime_flag_matches_a_gcd_filter(capsys):
    bounds = ",".join("%s=%d:%d" % (k, lo, hi) for k, (lo, hi) in BOX.items())
    main(["search", "--family", "bp-box", "--bounds", bounds, "--pairwise-coprime", "--json"])
    payload = json.loads(capsys.readouterr().out)
    keys = {row["key"] for row in payload["records"]}
    assert keys == _coprime_box_keys()
    assert payload["matched"] == len(keys)


def test_237m_positive_count():
    # 1/2 + 1/3 + 1/7 + 1/m > 1 for every m up to 41
    spec = SearchSpec("237m", {"m": (5, 41)}, Predicate(sign="positive"))
    result = run_search(spec)
    assert result.examined == 37
    assert result.matched == 37


def test_237m_coprime_count_and_note():
    spec = SearchSpec(
        "237m", {"m": (5, 41)}, Predicate(min_coprime_fixed=2)
    )
    result = run_search(spec)
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
    spec = SearchSpec("237m", {"m": (5, 41)}, Predicate(min_coprime_fixed=2))
    assert run_search(spec).matched == expected


def test_pqr_family_member():
    spec = SearchSpec(
        "pqrpqr", {"p": (2, 2), "q": (3, 3), "r": (11, 11)}, Predicate()
    )
    result = run_search(spec)
    assert result.matched == 1
    rec = result.records[0]
    assert rec.key == "bp:2,3,11,66"
    assert rec.middle_betti == 20


def test_pqr_family_skips_non_coprime():
    spec = SearchSpec(
        "pqrpqr", {"p": (2, 4), "q": (3, 6), "r": (5, 7)}, Predicate()
    )
    members = _members(spec)
    triples = [m.exponents.exponents[:3] for m in members]
    assert (2, 4, 5) not in [t[:3] for t in triples]
    assert all(len({p, q, r}) == 3 for p, q, r in triples)


def test_k1p_families_members_in_order():
    # (k, ..., k, k+1, p): two k's for kkk1p, three for kkkk1p
    bounds = {"k": (2, 3), "p": (5, 6)}
    for family, count in (("kkk1p", 2), ("kkkk1p", 3)):
        members = _members(SearchSpec(family, bounds, Predicate()))
        assert [m.exponents.exponents for m in members] == [
            (k,) * count + (k + 1, p) for k in (2, 3) for p in (5, 6)
        ]
        ends = [(m.exponents.exponents[0], m.exponents.exponents[-1]) for m in members]
        assert ends == [(k, p) for k in (2, 3) for p in (5, 6)]
        assert all(m.fixed == (k, k + 1) for m, (k, _) in zip(members, ends))
        assert [m.varying for m in members] == [5, 6, 5, 6]


def test_bp_box_dedupes_permutations():
    spec = SearchSpec("bp-box", {"a0": (2, 3), "a1": (2, 3)}, Predicate())
    result = run_search(spec)
    assert result.examined == 4
    # (2,3) and (3,2) share the canonical key bp:2,3
    assert result.matched == 3
    assert [r.key for r in result.records] == ["bp:2,2", "bp:2,3", "bp:3,3"]


def test_search_deterministic():
    spec = SearchSpec("237m", {"m": (5, 30)}, Predicate(sign="positive"))
    a = run_search(spec)
    b = run_search(spec)
    stripped = lambda res: [(r.key, r.middle_betti, r.sign) for r in res.records]
    assert stripped(a) == stripped(b)


def test_search_budget_refusal():
    spec = SearchSpec("237m", {"m": (5, 41)}, Predicate())
    with pytest.raises(BoundsTooLarge):
        run_search(spec, budget=10)


def test_bounds_refused_before_enumeration(monkeypatch, capsys):
    # reversed spans hold no tuples: they stay invalid input, however long
    reversed_spans = {"a0": (3000, 2), "a1": (3000, 2)}
    with pytest.raises(InvalidInput):
        run_search(SearchSpec("bp-box", reversed_spans, Predicate()))

    def never(bounds):
        pytest.fail("members enumerated before the bounds were charged")
        yield

    monkeypatch.setitem(FAMILIES, "bp-box", Family(never))
    bounds = {"a%d" % i: (2, 1001) for i in range(3)}  # 10^9 tuples
    with pytest.raises(BoundsTooLarge):
        run_search(SearchSpec("bp-box", bounds, Predicate()))
    argv = ["search", "--family", "bp-box", "--bounds", "a0=2:1001,a1=2:1001,a2=2:1001"]
    assert main(argv) == 3
    assert "budget" in capsys.readouterr().err


def test_budget_estimate_counts_signature_cost():
    spec = SearchSpec("bp-box", {"a0": (5, 5), "a1": (3, 3), "a2": (2, 2)}, Predicate())
    members = _members(spec)
    # 3 * 2^3 for the Betti sum plus 3 prefix build steps and 2 loop items
    assert check_budget(members, 10**6) == 24 + 5


def test_min_coprime_fixed_needs_varying_parameter():
    spec = SearchSpec(
        "bp-box", {"a0": (2, 3), "a1": (2, 3)}, Predicate(min_coprime_fixed=1)
    )
    with pytest.raises(InvalidInput):
        run_search(spec)


def test_unknown_family_rejected():
    with pytest.raises(InvalidInput):
        run_search(SearchSpec("nope", {"m": (2, 3)}, Predicate()))


def test_kervaire_family_verdicts():
    spec = SearchSpec(
        "kervaire",
        {"r1": (3, 3), "r2": (5, 5), "a": (7, 11)},
        Predicate(),
    )
    result = run_search(spec)
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
        records = run_search(SearchSpec(family, bounds, Predicate())).records
        assert records, family
        for rec in records:
            assert build_record(parse_key(rec.key)) == rec


def test_tiny_sweep_is_incomplete():
    sweep = seven_sphere_sweep({"k": (2, 2), "p": (2, 3)})
    assert sweep.distinct < 28


def test_sweep_witnesses_are_spheres():
    sweep = seven_sphere_sweep({"k": (2, 3), "p": (2, 40)})
    assert sweep.distinct >= 1
    for residue, exps in sweep.witnesses.items():
        assert 0 <= residue < 28
        assert betti(bp_link(exps)).middle_betti == 0


def test_sweep_examines_what_run_search_examines():
    bounds = {"k": (3, 4), "p": (20, 60)}
    spec = SearchSpec("kkkk1p", bounds, Predicate(min_coprime_fixed=2))
    assert seven_sphere_sweep(bounds).examined == run_search(spec).examined
