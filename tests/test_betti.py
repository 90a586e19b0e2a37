"""Milnor-Orlik middle Betti numbers and closed-form torsion."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from linkatlas import (
    TorsionForm,
    WeightSystem,
    betti,
    bp_link,
    is_rational_homology_sphere,
    torsion_closed_form,
)
from linkatlas.betti import TORSION_FREE, TORSION_UNKNOWN


def test_betti_published_values():
    assert betti(bp_link((4, 4, 4, 4))).middle_betti == 21
    assert betti(bp_link((6, 6, 6, 2))).middle_betti == 21
    assert betti(bp_link((2, 3, 12, 12))).middle_betti == 20
    assert betti(bp_link((5, 5, 6, 6))).middle_betti == 20
    assert betti(WeightSystem((13, 43, 101, 158), 316)).middle_betti == 1
    assert betti(WeightSystem((11, 61, 85, 158), 316)).middle_betti == 1
    # degree-40 system of z0^20 + z1^3 z3 + z2^3 z1 + z3^2 z0
    assert betti(WeightSystem((2, 7, 11, 19), 40)).middle_betti == 7


def test_betti_result_fields():
    res = betti(bp_link((2, 3, 12, 12)))
    assert res.link_dim == 5
    assert res.quotients == (
        Fraction(12, 1),
        Fraction(12, 1),
        Fraction(3, 1),
        Fraction(2, 1),
    )


def test_betti_quotients_reduced():
    res = betti(WeightSystem((2, 3, 4), 8))
    # d / w in lowest terms: 8/2 = 4, 8/3, 8/4 = 2
    assert res.quotients == (Fraction(4), Fraction(8, 3), Fraction(2))
    assert all(gcd(q.numerator, q.denominator) == 1 for q in res.quotients)


def test_betti_permutation_invariant():
    # constructor canonicalizes order, so feed permutations through bp_link
    rng = random.Random(23)
    for _ in range(50):
        exps = [rng.randint(2, 12) for _ in range(4)]
        perm = exps[:]
        rng.shuffle(perm)
        assert betti(bp_link(exps)).middle_betti == betti(bp_link(perm)).middle_betti


def test_betti_closed_form_kk11():
    for k in range(4, 11):
        assert betti(bp_link((k, k, k + 1, k + 1))).middle_betti == k * (k - 1)


def test_betti_closed_form_pqr():
    for p, q, r in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 9)]:
        expected = (p * q * r - p * q - p * r - q * r - 1) + p + q + r
        assert betti(bp_link((p, q, r, p * q * r))).middle_betti == expected


def test_betti_integral_on_random_inputs():
    # the alternating sum must land on a nonnegative integer every time
    rng = random.Random(29)
    for _ in range(200):
        nvars = rng.randint(2, 5)
        exps = [rng.randint(2, 15) for _ in range(nvars)]
        assert betti(bp_link(exps)).middle_betti >= 0


def test_rational_homology_sphere():
    assert is_rational_homology_sphere(bp_link((3, 3, 3, 4)))
    assert not is_rational_homology_sphere(bp_link((4, 4, 4, 4)))
    assert is_rational_homology_sphere(bp_link((2, 3, 5)))


def test_pairwise_coprime_triples_are_spheres():
    for exps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (5, 3, 2), (2, 5, 9)]:
        assert betti(bp_link(exps)).middle_betti == 0


def test_torsion_closed_form():
    assert torsion_closed_form((3, 3, 3, 4)) == TorsionForm("cyclic_pair", 4)
    assert str(torsion_closed_form((3, 3, 3, 5))) == "Z_5+Z_5"
    assert torsion_closed_form((2, 3, 12, 12)) == TORSION_FREE
    assert torsion_closed_form((5, 7, 9, 11, 13)) == TORSION_UNKNOWN
    # k divisible by 3 falls out of the closed form
    assert torsion_closed_form((3, 3, 3, 6)) == TORSION_UNKNOWN


def _prime_power_base(d):
    """p when d is a power of the prime p, else None."""
    p = next(q for q in range(2, d + 1) if d % q == 0) if d > 1 else None
    while p and d % p == 0:
        d //= p
    return p if d == 1 else None


def _totient(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def _delta_direct(exps):
    """(|Delta(1)|, |Delta(-1)|) from the monodromy eigenvalues, one per
    lattice point 0 < i_j < a_j: exp(2 pi i sum i_j / a_j).  Delta is
    prod Phi_d^{e_d} over the eigenvalue orders d, with e_d the count of
    order d over phi(d); |Phi_d(1)| is p for d = p^k, 0 for d = 1 and 1
    otherwise, and |Phi_d(-1)| is p for d = 2 p^k, 2 for d = 1, 0 for
    d = 2 and 1 otherwise."""
    top = lcm(*exps)
    orders = Counter()
    for point in itertools.product(*(range(1, a) for a in exps)):
        k = sum(i * (top // a) for i, a in zip(point, exps)) % top
        orders[top // gcd(k, top)] += 1
    at_one = at_minus_one = 1
    for d, count in orders.items():
        e = count // _totient(d)
        if d == 1:
            at_one, at_minus_one = 0, at_minus_one * 2**e
        elif d == 2:
            at_minus_one = 0
        if d > 1 and _prime_power_base(d):
            at_one *= _prime_power_base(d) ** e
        if d > 2 and d % 2 == 0 and _prime_power_base(d // 2):
            at_minus_one *= _prime_power_base(d // 2) ** e
    return at_one, at_minus_one


def test_delta_at_plus_and_minus_one_match_the_monodromy_eigenvalues():
    rng = random.Random(37)
    seen = Counter()
    for _ in range(150):
        exps = [rng.randint(2, 9) for _ in range(rng.randint(2, 5))]
        if prod(a - 1 for a in exps) > 3000:
            continue
        b = betti(bp_link(exps))
        orders = b.delta_at_one(), b.delta_at_minus_one()
        assert orders == _delta_direct(exps), exps
        seen[tuple(x > 1 for x in orders)] += 1
    assert len(seen) == 4


def test_three_exponent_spheres_are_the_pairwise_coprime_triples():
    for exps in itertools.combinations_with_replacement(range(2, 25), 3):
        coprime = all(gcd(x, y) == 1 for x, y in itertools.combinations(exps, 2))
        assert (betti(bp_link(exps)).delta_at_one() == 1) == coprime, exps


def test_delta_at_one_is_the_order_of_the_closed_form_torsion():
    # the well-formed (torsion-free) vectors here all have Betti number > 0,
    # so only the Z_k+Z_k family is met
    kinds = Counter()
    for exps in itertools.combinations_with_replacement(range(2, 13), 4):
        b = betti(bp_link(exps))
        if b.middle_betti:
            continue
        order = b.delta_at_one()
        torsion = torsion_closed_form(exps)
        if torsion == TORSION_FREE:
            assert order == 1, exps
        elif torsion.kind == "cyclic_pair":
            assert order == torsion.k**2, exps
        kinds[torsion.kind] += 1
    assert kinds["cyclic_pair"] == 7


def test_delta_at_plus_and_minus_one_agree_mod_2():
    # Delta has integer coefficients, so Delta(1) = Delta(-1) mod 2
    rng = random.Random(31)
    for _ in range(300):
        exps = [rng.randint(2, 15) for _ in range(rng.randint(2, 6))]
        b = betti(bp_link(exps))
        assert (b.delta_at_one() - b.delta_at_minus_one()) % 2 == 0, exps
