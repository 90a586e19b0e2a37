"""The slow search oracle: build every member, keep the first record of
each key and the first matched member of each bp8 residue.

run_search builds one record per canonical key; this loop builds one per
member and filters with its own comparisons, so the two agree only if a
record and the record filters depend on nothing but the key.
"""

import itertools
from math import gcd

from linkatlas import BPExponents, build_record
from linkatlas.search import FAMILIES, SearchResult


def naive_search(
    family, bounds, *, pairwise_coprime=False, min_coprime_fixed=None,
    sign=None, middle_betti=None,
) -> SearchResult:
    """run_search's answer for the same arguments (sign and middle_betti
    are the record filters it compares)."""
    members = list(FAMILIES[family].generate(bounds))
    if min_coprime_fixed is not None:
        members = [
            m for m in members
            if sum(gcd(m.varying, q) == 1 for q in set(m.fixed)) >= min_coprime_fixed
        ]
    matched, witnesses = {}, {}
    for member in members:
        exps = member.exponents
        rec = build_record(BPExponents(exps))
        if (
            sign in (None, rec.sign)
            and middle_betti in (None, rec.middle_betti)
            and not (
                pairwise_coprime
                and any(gcd(x, y) != 1 for x, y in itertools.combinations(exps, 2))
            )
        ):
            matched.setdefault(rec.key, rec)
            if rec.sphere.bp8_residue is not None:
                witnesses.setdefault(rec.sphere.bp8_residue, exps)
    records = tuple(matched[k] for k in sorted(matched))
    return SearchResult(records, len(members), len(records), (), witnesses)


def assert_same_search(got: SearchResult, want: SearchResult) -> None:
    """records, examined, matched and witnesses agree, each witness in
    its enumerated spelling and the witnesses in the same order."""
    assert got.records == want.records
    assert (got.examined, got.matched) == (want.examined, want.matched)
    assert list(got.witnesses.items()) == list(want.witnesses.items())
