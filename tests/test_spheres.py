"""Brieskorn signatures, Casson invariants and exotic sphere classes."""

import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from linkatlas import (
    BPExponents,
    SignClass,
    WeightSystem,
    betti,
    bp8_class,
    bp_link,
    brieskorn_signature,
    brieskorn_signature_direct,
    build_record,
    casson_invariant,
    classify_sign,
    kervaire_classify,
    reciprocal_sum,
)
from linkatlas import spheres
from linkatlas.cli import main
from linkatlas.betti import TORSION_FREE, TORSION_UNKNOWN
from linkatlas.links import kervaire_exponents
from linkatlas.errors import (
    DimensionUnsupported,
    InvalidInput,
    NotASphere,
    NotPairwiseCoprime,
    NotQuasiSmooth,
)
from signature_oracle import by_residue


def test_signature_published_family():
    assert brieskorn_signature((5, 3, 2)).signature == -8
    assert brieskorn_signature((11, 3, 2)).signature == -16
    assert brieskorn_signature((7, 3, 2)).signature == -8
    for k in range(1, 6):
        assert brieskorn_signature((6 * k - 1, 3, 2)).signature == -8 * k


def test_signature_counts_bound():
    res = brieskorn_signature((5, 3, 2))
    assert res.signature == res.positive - res.negative
    assert res.positive + res.negative <= (5 - 1) * (3 - 1) * (2 - 1)


def test_signature_lattice_partition():
    # sigma+ + sigma- + integer points = all interior lattice points
    rng = random.Random(31)
    for _ in range(30):
        exps = [rng.randint(2, 9) for _ in range(3)]
        res = brieskorn_signature(exps)
        total = prod(x - 1 for x in exps)
        integers = sum(
            1
            for i in range(1, exps[0])
            for j in range(1, exps[1])
            for k in range(1, exps[2])
            if (Fraction(i, exps[0]) + Fraction(j, exps[1]) + Fraction(k, exps[2]))
            .denominator == 1
        )
        assert res.positive + res.negative + integers == total


def test_signature_routes_agree():
    rng = random.Random(37)
    for _ in range(25):
        exps = [rng.randint(2, 8) for _ in range(3)]
        assert brieskorn_signature(exps) == brieskorn_signature_direct(exps)
    for _ in range(5):
        exps = [rng.randint(2, 4) for _ in range(5)]
        assert brieskorn_signature(exps) == brieskorn_signature_direct(exps)


@pytest.mark.parametrize(
    "vectors",
    [
        [(a, b, c) for a in range(2, 10) for b in range(2, 10) for c in range(2, 10)],
        [(k, k, k, k + 1, p) for k in (2, 3) for p in range(2, 151)],
    ],
    ids=["box-2-9-cubed", "kkkk1p-k2-3-p150"],
)
def test_signature_both_loops_match_oracle(monkeypatch, vectors):
    # the last factor is counted by one of two routes, chosen by the number
    # of prefix residues against 3(a - 1); both sides must occur here
    runs = {"_by_class": 0, "_by_step": 0}
    for name in runs:
        real = getattr(spheres, name)

        def counted(*args, _name=name, _real=real):
            runs[_name] += 1
            return _real(*args)

        monkeypatch.setattr(spheres, name, counted)
    for exps in vectors:
        assert brieskorn_signature(exps) == brieskorn_signature_direct(exps), exps
    assert runs["_by_class"] > 0 and runs["_by_step"] > 0
    assert sum(runs.values()) == len(vectors)


def test_class_sums_match_the_per_residue_pass_on_the_sweep_window():
    # every vector of the 7-sphere sweep's bounds k=2:8, p=2:600, whichever
    # route it takes: the class sums give what one pass over the prefix
    # residues gives
    members = on_class_route = 0
    classes = set()
    for k, p in itertools.product(range(2, 9), range(2, 601)):
        *prefix, last = sorted((k, k, k, k + 1, p))
        prefix = tuple(prefix)
        d, residues, cumulative = spheres._prefix_histogram(prefix)
        want = by_residue(residues, cumulative, d, last)
        assert spheres._by_class(prefix, d, last) == want, (k, p)
        by_class = len(residues) <= 3 * (last - 1)
        if by_class:
            assert brieskorn_signature((k, k, k, k + 1, p)) == spheres.SignatureResult(*want)
        # the sweep's members: p coprime to k and k + 1
        if gcd(p, k * (k + 1)) == 1:
            members += 1
            if by_class:
                on_class_route += 1
                classes.add((prefix, last % d))
    assert (members, on_class_route, len(classes)) == (1421, 1380, 82)


def test_class_sums_match_the_per_residue_pass_on_random_vectors():
    rng = random.Random(43)
    for _ in range(1500):
        n, top = rng.choice([(3, 60), (5, 14)])
        *prefix, last = sorted(rng.randint(2, top) for _ in range(n))
        prefix = tuple(prefix)
        d, residues, cumulative = spheres._prefix_histogram(prefix)
        want = by_residue(residues, cumulative, d, last)
        assert spheres._by_class(prefix, d, last) == want, (prefix, last)


def test_sweep_payload_does_not_depend_on_warm_tables(capsys):
    argv = ["search", "--family", "kkkk1p", "--bounds", "k=2:8,p=2:600", "--bp8-sweep",
            "--budget", "1000000000", "--json"]
    payloads = []
    for clear in (True, False, True):
        if clear:
            spheres._residue_class.cache_clear()
            spheres._prefix_histogram.cache_clear()
        assert main(argv) == 0
        payloads.append(capsys.readouterr().out)
    assert payloads[0] == payloads[1] == payloads[2]
    assert json.loads(payloads[0])["distinct_residues"] == 28


def test_bp8_class_beyond_int64():
    # Brieskorn: L(2,2,2,3,6k-1) is the k-th class mod 28; here the lattice
    # has Prod(a_i - 1) >= 2^61 points, far past any fixed-width count
    k = 2**58 + 1
    exps = (2, 2, 2, 3, 6 * k - 1)
    assert prod(x - 1 for x in exps) >= 2**61
    verdict = bp8_class(exps)
    assert verdict.bp8_residue == k % 28


def test_signature_five_exponents():
    res = brieskorn_signature((2, 2, 2, 3, 5))
    assert res.signature == 8
    assert res == brieskorn_signature_direct((2, 2, 2, 3, 5))


def test_signature_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        brieskorn_signature((2, 3, 5, 7))
    with pytest.raises(DimensionUnsupported):
        brieskorn_signature_direct((2, 3))


def test_casson_invariant():
    assert casson_invariant((5, 3, 2)) == -1
    assert casson_invariant((17, 3, 2)) == -3
    assert casson_invariant((7, 3, 2)) == -1
    for k in range(1, 6):
        assert casson_invariant((6 * k - 1, 3, 2)) == -k


def test_casson_guards():
    with pytest.raises(NotPairwiseCoprime):
        casson_invariant((6, 10, 15))
    with pytest.raises(DimensionUnsupported):
        casson_invariant((2, 3, 5, 7, 11))


def test_bp8_class():
    verdict = bp8_class((2, 2, 2, 3, 5))
    assert verdict.kind == "rational_homology_sphere"
    assert verdict.bp8_residue == 1
    with pytest.raises(DimensionUnsupported):
        bp8_class((5, 3, 2))


def test_bp8_requires_sphere():
    # L(2,2,2,4,4) has middle Betti number 2
    from linkatlas import betti

    assert betti(bp_link((2, 2, 2, 4, 4))).middle_betti == 2
    with pytest.raises(NotASphere):
        bp8_class((2, 2, 2, 4, 4))


def test_bp8_requires_a_homotopy_sphere():
    # Betti number 0 is not enough: H_3 of L(2,2,2,4,5) has order 5
    assert betti(bp_link((2, 2, 2, 4, 5))).middle_betti == 0
    with pytest.raises(NotASphere, match="order 5"):
        bp8_class((2, 2, 2, 4, 5))


def test_kervaire_classify():
    verdict, _ = kervaire_classify((3, 5), 7)
    assert verdict.kind == "standard_sphere"
    verdict, _ = kervaire_classify((3, 5), 11)
    assert verdict.kind == "kervaire_sphere"
    verdict, _ = kervaire_classify((3, 5), 4)
    assert verdict.kind == "undetermined"
    # a = 3 shares a factor with r_2 = 3: L(2,2,6,3) has b = 2
    verdict, _ = kervaire_classify((1, 3), 3)
    assert verdict.kind == "undetermined"


def test_kervaire_sign_rule():
    # negative exactly when sum 1/r_i < (a-2)/a
    rng = random.Random(41)
    seen_negative = False
    for _ in range(100):
        r1 = rng.randint(1, 9)
        r2 = rng.randint(1, 9)
        if gcd(r1, r2) != 1:
            continue
        a = rng.randint(2, 30)
        _, sign = kervaire_classify((r1, r2), a)
        lhs = Fraction(1, r1) + Fraction(1, r2)
        rhs = Fraction(a - 2, a)
        assert (sign is SignClass.NEGATIVE) == (lhs < rhs)
        seen_negative = seen_negative or sign is SignClass.NEGATIVE
    assert seen_negative


def test_kervaire_guards():
    with pytest.raises(NotPairwiseCoprime):
        kervaire_classify((2, 4), 7)
    with pytest.raises(DimensionUnsupported):
        kervaire_classify((3, 5, 7), 9)
    with pytest.raises(InvalidInput):
        kervaire_classify((0, 5), 7)
    # a = 7.9 once took its sign from a = 7 and its verdict from 7.9
    for rs, a in (((3, 5), 7.9), ((3.0, 5), 7)):
        with pytest.raises(InvalidInput, match="must be integers"):
            kervaire_classify(rs, a)


def test_kervaire_matches_reciprocal_trichotomy():
    # the sign comes from the full exponent vector (2, 2r_i, a)
    _, sign = kervaire_classify((1, 1), 3)
    assert sign is classify_sign(bp_link((2, 2, 2, 3)))
    assert reciprocal_sum((2, 2, 2, 3)) > 1
    assert sign is SignClass.POSITIVE


def _brieskorn_graph_sphere(exps):
    """Brieskorn's graph criterion (1966) for 4 or more exponents: join
    a_i and a_j when gcd(a_i, a_j) > 1; the link is a topological sphere
    exactly when the graph has two isolated vertices, or one and an odd
    component whose exponents have pairwise gcd 2."""
    n = len(exps)

    def joined(i, j):
        return i != j and gcd(exps[i], exps[j]) > 1

    isolated = [i for i in range(n) if not any(joined(i, j) for j in range(n))]
    if len(isolated) != 1:
        return len(isolated) >= 2
    rest = set(range(n)) - set(isolated)
    while rest:
        component, frontier = set(), {rest.pop()}
        while frontier:
            i = frontier.pop()
            component.add(i)
            reached = {j for j in rest if joined(i, j)}
            rest -= reached
            frontier |= reached
        if len(component) % 2 and all(
            gcd(exps[i], exps[j]) == 2 for i, j in itertools.combinations(component, 2)
        ):
            return True
    return False


@pytest.mark.parametrize("n, hi", [(4, 14), (5, 9), (6, 6)])
def test_homotopy_spheres_follow_brieskorns_graph(n, hi):
    spheres_seen = 0
    for exps in itertools.combinations_with_replacement(range(2, hi + 1), n):
        b = betti(bp_link(exps))
        sphere = b.middle_betti == 0 and b.delta_at_one() == 1
        assert sphere == _brieskorn_graph_sphere(exps), exps
        spheres_seen += sphere
    assert spheres_seen


def test_levine_rule_matches_kervaire_classify():
    # L(2, 2r_1, ..., 2r_2m, a), m = 1, 2: Delta(-1) mod 8 against a mod 8
    kinds = Counter()
    for m, r_max in ((1, 7), (2, 5)):
        for rs in itertools.product(range(1, r_max + 1), repeat=2 * m):
            if any(gcd(x, y) != 1 for x, y in itertools.combinations(rs, 2)):
                continue
            for a in range(3, 40, 2):
                exps = BPExponents((2,) + tuple(2 * r for r in rs) + (a,))
                b = betti(bp_link(exps))
                if b.middle_betti:
                    continue
                verdict = spheres.sphere_verdict(b)
                assert verdict == kervaire_classify(rs, a)[0], exps
                kinds[verdict.kind] += 1
    assert kinds == {"standard_sphere": 876, "kervaire_sphere": 1070}


def test_kervaire_classify_agrees_with_the_record():
    # the oracle names a sphere only where the record of the exponent
    # vector names the same one, and says undetermined everywhere else
    kinds = Counter()
    for m, r_max in ((1, 7), (2, 5)):
        for rs in itertools.product(range(1, r_max + 1), repeat=2 * m):
            if any(gcd(x, y) != 1 for x, y in itertools.combinations(rs, 2)):
                continue
            for a in range(2, 40):
                oracle = kervaire_classify(rs, a)[0].kind
                record = build_record(kervaire_exponents(rs, a)).sphere.kind
                assert oracle in (record, "undetermined"), (rs, a)
                kinds[oracle, record] += 1
    assert sum(kinds.values()) == 6080
    assert kinds == {
        ("standard_sphere", "standard_sphere"): 876,
        ("kervaire_sphere", "kervaire_sphere"): 1070,
        ("undetermined", "not_a_sphere"): 4134,
    }


def test_sphere_rule_skips_curves_and_reads_weight_systems():
    # a 1-dimensional link is no sphere question: L(2,3) is the trefoil,
    # whose Delta(1) = 1 and Delta(-1) = 3 would read as a Kervaire sphere
    trefoil = BPExponents((2, 3))
    b = betti(bp_link(trefoil))
    assert (b.delta_at_one(), b.delta_at_minus_one()) == (1, 3)
    assert spheres.sphere_verdict(b).kind == "rational_homology_sphere"
    # a quasi-smooth weight system is read by the same rule: z0^6 + z1^3
    # + z2^2 + z0 z3 is the A_2 singularity of bp:2,2,2,3, so both links
    # are the Kervaire 5-sphere, Delta(-1) = 3
    ws = WeightSystem((1, 2, 3, 5), 6)
    assert betti(ws).delta_at_minus_one() == 3
    assert spheres.sphere_verdict(betti(ws)).kind == "kervaire_sphere"
    for link in (ws, BPExponents((2, 2, 2, 3))):
        rec = build_record(link)
        assert (rec.sphere.kind, rec.torsion) == ("kervaire_sphere", TORSION_FREE)


def test_homotopy_spheres_are_torsion_free():
    # Betti number 0 and |Delta(1)| = 1 leave no middle homology at all
    spheres_seen = 0
    for n, hi in ((4, 12), (5, 8), (6, 6)):
        for exps in itertools.combinations_with_replacement(range(2, hi + 1), n):
            b = betti(bp_link(exps))
            if b.middle_betti == 0 and b.delta_at_one() == 1:
                assert build_record(BPExponents(exps)).torsion == TORSION_FREE, exps
                spheres_seen += 1
    assert spheres_seen == 407


def test_weight_systems_claim_the_sphere_kinds_of_their_links():
    # a 4-variable system with no quasi-smooth polynomial has no link and
    # no record; every other one is read by the Delta rule of bp: keys
    kinds, torsion, refused = Counter(), Counter(), 0
    for d in range(2, 24):
        for weights in itertools.combinations_with_replacement(range(1, d), 4):
            if gcd(*weights) != 1:
                continue
            try:
                rec = build_record(WeightSystem(weights, d))
            except NotQuasiSmooth:
                refused += 1
                continue
            kinds[rec.sphere.kind] += 1
            torsion[re.sub(r"Z_(\d+)\+Z_\1", "Z_k+Z_k", rec.torsion)] += 1
    assert refused == 56983
    assert kinds == {
        "standard_sphere": 33,
        "kervaire_sphere": 50,
        "rational_homology_sphere": 38,
        "not_a_sphere": 2333,
    }
    assert torsion == {TORSION_FREE: 2062, "Z_k+Z_k": 4, TORSION_UNKNOWN: 388}


def test_one_verdict_per_link_whatever_its_spelling():
    # a bp: key and the w: key of its weight system name one link
    seen = 0
    for n, hi in ((3, 30), (4, 14), (5, 8), (6, 6)):
        for exps in itertools.combinations_with_replacement(range(2, hi + 1), n):
            as_bp = build_record(BPExponents(exps))
            as_w = build_record(bp_link(exps))
            for field in ("sign", "middle_betti", "torsion"):
                assert getattr(as_w, field) == getattr(as_bp, field), (exps, field)
            assert as_w.sphere.kind == as_bp.sphere.kind, exps
            seen += 1
    assert seen == 6987
