"""Brieskorn signatures, Casson invariants and exotic sphere classes."""

import itertools
import random
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
    casson_invariant,
    classify_sign,
    is_homology_3_sphere,
    kervaire_classify,
    reciprocal_sum,
)
from linkatlas import spheres
from linkatlas.betti import TORSION_FREE, TORSION_UNKNOWN
from linkatlas.errors import (
    DimensionUnsupported,
    InvalidInput,
    NotASphere,
    NotPairwiseCoprime,
)


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
        [(k, k, k, k + 1, p) for k in (2, 3) for p in range(2, 121)],
    ],
    ids=["box-2-9-cubed", "kkkk1p-k2-3-p120"],
)
def test_signature_both_loops_match_oracle(monkeypatch, vectors):
    # the last factor is counted by one of two loops, chosen by the number
    # of prefix residues against 3(a - 1); both sides must occur here
    runs = {"_by_residue": 0, "_by_step": 0}
    for name in runs:
        real = getattr(spheres, name)

        def counted(*args, _name=name, _real=real):
            runs[_name] += 1
            return _real(*args)

        monkeypatch.setattr(spheres, name, counted)
    for exps in vectors:
        assert brieskorn_signature(exps) == brieskorn_signature_direct(exps), exps
    assert runs["_by_residue"] > 0 and runs["_by_step"] > 0
    assert sum(runs.values()) == len(vectors)


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


def test_homology_3_sphere():
    assert is_homology_3_sphere((5, 3, 2))
    assert not is_homology_3_sphere((6, 10, 15))
    assert is_homology_3_sphere((7, 3, 2))
    with pytest.raises(DimensionUnsupported):
        is_homology_3_sphere((2, 3, 5, 7))


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
                verdict = spheres.sphere_verdict(exps, b)
                assert verdict == kervaire_classify(rs, a)[0], exps
                kinds[verdict.kind] += 1
    assert kinds == {"standard_sphere": 876, "kervaire_sphere": 1070}


def test_sphere_rule_skips_curves_and_weight_systems():
    # a 1-dimensional link is no sphere question: L(2,3) is the trefoil,
    # whose Delta(1) = 1 and Delta(-1) = 3 would read as a Kervaire sphere
    trefoil = BPExponents((2, 3))
    b = betti(bp_link(trefoil))
    assert (b.delta_at_one(), b.delta_at_minus_one()) == (1, 3)
    assert spheres.sphere_verdict(trefoil, b).kind == "rational_homology_sphere"
    # weight systems keep the torsion rule; this one reads Delta(-1) = 3
    ws = WeightSystem((1, 2, 3, 5), 6)
    assert betti(ws).delta_at_minus_one() == 3
    for torsion, kind in (
        (TORSION_FREE, "standard_sphere"),
        (TORSION_UNKNOWN, "rational_homology_sphere"),
    ):
        assert spheres.sphere_verdict(ws, betti(ws), None, torsion).kind == kind
