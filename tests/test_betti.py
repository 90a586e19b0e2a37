"""Milnor-Orlik middle Betti numbers and closed-form torsion."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from linkatlas import bp_link
from linkatlas.betti import (
    TORSION_FREE,
    TORSION_UNKNOWN,
    _product,
    betti,
    is_rational_homology_sphere,
    torsion_closed_form,
)
from linkatlas.errors import InconsistentInvariants, NotQuasiSmooth
from linkatlas.links import (
    BPExponents,
    WeightSystem,
    is_quasi_smooth,
    quasi_smooth_cost,
)
from betti_oracle import join_fermat, old_product, repeated_non_fermat_systems, subset_betti


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


def _torsion(link):
    ws = link if isinstance(link, WeightSystem) else bp_link(link)
    return torsion_closed_form(ws, betti(ws))


def test_torsion_closed_form():
    assert _torsion((3, 3, 3, 4)) == "Z_4+Z_4"
    assert _torsion((3, 3, 3, 5)) == "Z_5+Z_5"
    assert _torsion((2, 3, 12, 12)) == TORSION_FREE
    # homotopy spheres have no middle homology: Brieskorn's generator of
    # bP_8, and a negative exotic 7-sphere
    assert _torsion((2, 2, 2, 3, 5)) == TORSION_FREE
    assert _torsion((5, 7, 9, 11, 13)) == TORSION_FREE
    assert _torsion((2, 2, 2, 3, 6)) == TORSION_UNKNOWN
    # k divisible by 3 falls out of the closed form
    assert _torsion((3, 3, 3, 6)) == TORSION_UNKNOWN
    # three exponents: pairwise coprime is an integral homology sphere
    assert _torsion(BPExponents((5, 3, 2))) == TORSION_FREE
    assert _torsion((2, 4, 5)) == TORSION_UNKNOWN
    # a curve's Delta(1) = 1 says nothing about a middle homology
    assert _torsion((2, 3)) == TORSION_UNKNOWN
    # a weight system answers as the exponent vector it spells: (2,2,2,3)
    # is bp:2,3,3,3, and (6,10,15)@30 is bp:2,3,5
    assert _torsion(WeightSystem((1, 1, 4, 6), 12)) == TORSION_FREE
    assert _torsion(WeightSystem((2, 2, 2, 3), 6)) == "Z_2+Z_2"
    assert _torsion(WeightSystem((6, 10, 15), 30)) == TORSION_FREE
    # well-formed and quasi-smooth, not Brieskorn-Pham
    assert _torsion(WeightSystem((13, 43, 101, 158), 316)) == TORSION_FREE


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
    return _delta_of_orders(orders)


def _delta_of_orders(orders):
    """(|Delta(1)|, |Delta(-1)|) of the eigenvalue counts by order."""
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
    # the well-formed vectors here all have Betti number > 0, so the
    # torsion-free ones are the homotopy spheres, |Delta(1)| = 1
    kinds = Counter()
    for exps in itertools.combinations_with_replacement(range(2, 13), 4):
        b = betti(bp_link(exps))
        if b.middle_betti:
            continue
        order = b.delta_at_one()
        torsion = torsion_closed_form(bp_link(exps), b)
        if torsion == TORSION_FREE:
            assert order == 1, exps
        elif torsion != TORSION_UNKNOWN:
            cyclic = re.fullmatch(r"Z_(\d+)\+Z_\1", torsion)
            assert cyclic and order == int(cyclic[1]) ** 2, exps
            torsion = "Z_k+Z_k"
        kinds[torsion] += 1
    assert kinds["Z_k+Z_k"] == 7
    assert kinds[TORSION_FREE] == 305


def test_delta_at_plus_and_minus_one_agree_mod_2():
    # Delta has integer coefficients, so Delta(1) = Delta(-1) mod 2
    rng = random.Random(31)
    for _ in range(300):
        exps = [rng.randint(2, 15) for _ in range(rng.randint(2, 6))]
        b = betti(bp_link(exps))
        assert (b.delta_at_one() - b.delta_at_minus_one()) % 2 == 0, exps


# --- the quasi-smooth gate, against the Poincare series -----------------


def _poincare_series(ws):
    """Coefficients of prod (1 - T^{d - w_i}) / (1 - T^{w_i}), the
    Hilbert series of the Milnor algebra, when it is a polynomial with
    nonnegative coefficients; None otherwise.  Its degree would be
    D = sum (d - 2 w_i), and the power series up to the numerator's
    degree decides: it is a polynomial exactly when it vanishes above D
    there."""
    d, weights = ws.degree, ws.weights
    top = sum(d - w for w in weights)
    series = [1] + [0] * top
    for w in weights:
        for t in range(top, d - w - 1, -1):  # times 1 - T^{d - w}
            series[t] -= series[t - (d - w)]
        for t in range(w, top + 1):  # over 1 - T^w
            series[t] += series[t - w]
    deg = top - sum(weights)
    if deg < 0 or any(series[deg + 1 :]) or min(series) < 0:
        return None
    return series[: deg + 1]


def _spectral_invariants(ws, series):
    """(b, |Delta(1)|, |Delta(-1)|) of the series: a monomial of degree e
    has eigenvalue exp(2 pi i (e + sum w) / d) (Steenbrink 1977)."""
    d, shift = ws.degree, ws.total_weight
    orders = Counter()
    for e, count in enumerate(series):
        if count:
            orders[d // gcd(e + shift, d)] += count
    for order, count in orders.items():
        assert count % _totient(order) == 0, (ws, order)
    return (orders[1], *_delta_of_orders(orders))


def _canonical_systems():
    for nvars, degrees in ((3, range(2, 30)), (4, range(2, 20)), (5, range(2, 12))):
        for d in degrees:
            for weights in itertools.combinations_with_replacement(range(1, d), nvars):
                if gcd(*weights) == 1:
                    yield WeightSystem(weights, d)


def test_the_gate_accepts_exactly_the_polynomial_poincare_series():
    # over every canonical system of 3 variables with d < 30, 4 with
    # d < 20 and 5 with d < 12, betti() answers exactly where the series
    # is a polynomial with nonnegative coefficients, and then agrees
    # with it on b, |Delta(1)| and |Delta(-1)|
    seen = accepted = 0
    for ws in _canonical_systems():
        seen += 1
        series = _poincare_series(ws)
        assert is_quasi_smooth(ws) == (series is not None), ws
        if series is None:
            with pytest.raises(NotQuasiSmooth):
                betti(ws)
            continue
        accepted += 1
        b = betti(ws)
        got = (b.middle_betti, b.delta_at_one(), b.delta_at_minus_one())
        assert got == _spectral_invariants(ws, series), ws
    assert (seen, accepted) == (54020, 2930)


def test_betti_refuses_weight_systems_with_no_link():
    for ws in (
        WeightSystem((1, 1, 1, 4), 11),
        WeightSystem((1, 3, 4, 4), 9),
        WeightSystem((1, 3, 4, 5), 6),
    ):
        assert not is_quasi_smooth(ws)
        with pytest.raises(NotQuasiSmooth, match="not quasi-smooth"):
            betti(ws)
        with pytest.raises(NotQuasiSmooth):
            is_rational_homology_sphere(ws)


def test_the_gate_costs_nothing_on_fermat_systems_and_not_d_elsewhere():
    rng = random.Random(41)
    for _ in range(100):
        ws = bp_link([rng.randint(2, 30) for _ in range(rng.randint(2, 7))])
        assert is_quasi_smooth(ws) and quasi_smooth_cost(ws) == 0
    # the weights 2..5 divide no prime degree: 15 sets, each table at
    # most 5 long, whatever d is
    ws = WeightSystem((1, 2, 3, 4, 5), 100000007)
    assert quasi_smooth_cost(ws) == quasi_smooth_cost(WeightSystem((1, 2, 3, 4, 5), 67))
    assert quasi_smooth_cost(ws) == (2 + 5) * 8 + (3 + 5) * 4 + (4 + 5) * 2 + (5 + 5)
    assert is_quasi_smooth(ws)


# --- the grouped Betti step, against one term per subset ----------------


def _assert_matches_the_subset_sum(ws):
    b = betti(ws)
    got = (b.middle_betti, b.divisor, b.delta_at_one(), b.delta_at_minus_one(), b.quotients)
    assert got == subset_betti(ws), ws


def test_betti_matches_the_subset_sum_on_repeated_weights():
    rng = random.Random(43)
    # 3 variables with d < 16 and 4 with d < 10
    systems = list(repeated_non_fermat_systems(((3, range(2, 16)), (4, range(2, 10)))))
    assert len(systems) > 100
    for ws in systems:
        _assert_matches_the_subset_sum(ws)
    for _ in range(150):
        exps = [rng.randint(2, 9) for _ in range(rng.randint(2, 7))]
        _assert_matches_the_subset_sum(bp_link(exps))
        base = rng.choice(systems)
        extra = [rng.randint(2, 6)] * rng.randint(1, 3)
        _assert_matches_the_subset_sum(join_fermat(base, extra))


def test_the_coprime_base_product_is_the_old_powers():
    rng = random.Random(47)
    integral = 0
    for _ in range(400):
        divisor = {rng.randint(1, 60): rng.randint(-3, 3) for _ in range(rng.randint(1, 6))}
        factors = list(divisor.items())
        num = prod(ell**k for ell, k in factors if k > 0)
        den = prod(ell**-k for ell, k in factors if k < 0)
        if num % den:
            with pytest.raises(InconsistentInvariants, match="is not an integer"):
                _product(factors, list(divisor))
        else:
            integral += 1
            assert _product(factors, list(divisor)) == old_product(divisor)
    assert integral > 100


def test_delta_needs_no_large_powers():
    # five equal exponents give c_l near (k - 1)^5 / l, which the old
    # powers built in full
    for exps in ((10, 10, 10, 10, 10, 11, 13), (12, 12, 12, 12, 12, 13, 17)):
        b = betti(bp_link(exps))
        assert max(abs(c) for c in b.divisor.values()) > 1000
        assert b.middle_betti == 0 and b.delta_at_one() == old_product(b.divisor) == 1
        even = {ell: c for ell, c in b.divisor.items() if ell % 2 == 0}
        assert sum(even.values()) == 0
        assert b.delta_at_minus_one() == old_product(even, 1 << b.middle_betti)
