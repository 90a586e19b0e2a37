"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Every value is asserted exactly; time bounds are wall-clock.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from linkatlas import (
    EtaConstants,
    bp_link,
    casson_invariant,
    classify_sign,
    eta_fit,
    heisenberg_algebra,
    transverse_homothety,
)
from linkatlas.betti import betti
from linkatlas.curvature import berger_sphere, ew_function_check
from linkatlas.eta import einstein_scale, ew_mu_squared
from linkatlas.links import SignClass, WeightSystem, count_monomials
from linkatlas.search import run_search, seven_sphere_sweep
from linkatlas.spheres import brieskorn_signature
from signature_oracle import brieskorn_signature_direct


def _report(num, label, body):
    try:
        body()
    except BaseException:
        print("criterion %d (%s): FAIL" % (num, label))
        raise
    print("criterion %d (%s): PASS" % (num, label))


def _timed_betti(source, expected, limit=0.010):
    ws = bp_link(source) if isinstance(source, tuple) else source
    best = min(
        (lambda t0: (betti(ws).middle_betti, time.perf_counter() - t0))(
            time.perf_counter()
        )[1]
        for _ in range(3)
    )
    value = betti(ws).middle_betti
    assert value == expected, "betti(%s) = %d, want %d" % (ws, value, expected)
    assert best < limit, "betti(%s) took %.4fs" % (ws, best)


def test_criterion_1_published_betti_values():
    def body():
        _timed_betti((4, 4, 4, 4), 21)
        _timed_betti((6, 6, 6, 2), 21)
        _timed_betti((2, 3, 12, 12), 20)
        _timed_betti((2, 3, 11, 66), 20)
        _timed_betti(WeightSystem((13, 43, 101, 158), 316), 1)
        _timed_betti(WeightSystem((11, 61, 85, 158), 316), 1)

    _report(1, "published Betti values, each under 10 ms", body)


def test_criterion_2_closed_form_betti_oracles():
    def body():
        start = time.perf_counter()
        for k in range(4, 11):
            assert betti(bp_link((k, k, k + 1, k + 1))).middle_betti == k * (k - 1)
        for p, q, r in itertools.combinations(range(2, 14), 3):
            if gcd(p, q) != 1 or gcd(p, r) != 1 or gcd(q, r) != 1:
                continue
            expected = (p * q * r - p * q - p * r - q * r - 1) + p + q + r
            assert betti(bp_link((p, q, r, p * q * r))).middle_betti == expected
        assert time.perf_counter() - start < 5.0

    _report(2, "closed-form Betti oracles under 5 s", body)


def test_criterion_3_sign_trichotomy_and_null_table():
    def body():
        assert classify_sign(bp_link((5, 3, 2))) is SignClass.POSITIVE
        assert classify_sign(bp_link((2, 3, 7, 42))) is SignClass.NULL
        assert classify_sign(bp_link((7, 3, 2))) is SignClass.NEGATIVE
        table = [((1, 2, 3), 6, 7), ((1, 1, 2), 4, 9), ((1, 1, 1), 3, 10)]
        for weights, degree, count in table:
            ws = WeightSystem(weights, degree)
            assert classify_sign(ws) is SignClass.NULL
            assert count_monomials(ws) == count

    _report(3, "sign trichotomy and null 3-manifold table", body)


def test_criterion_4_signature_casson_and_dual_routes():
    def body():
        start = time.perf_counter()
        for k in range(1, 6):
            assert brieskorn_signature((6 * k - 1, 3, 2)).signature == -8 * k
        assert casson_invariant((7, 3, 2)) == -1
        for exps in itertools.combinations(range(2, 13), 3):
            if any(gcd(x, y) != 1 for x, y in itertools.combinations(exps, 2)):
                continue
            assert brieskorn_signature(exps) == brieskorn_signature_direct(exps)
        assert time.perf_counter() - start < 10.0

    _report(4, "signatures, Casson, dual-route agreement under 10 s", body)


def test_criterion_5_seven_sphere_sweep():
    def body():
        start = time.perf_counter()
        # estimated cost 494,993 (catalog.record_cost per distinct key), well
        # inside the default budget
        sweep = seven_sphere_sweep({"k": (2, 8), "p": (2, 600)})
        elapsed = time.perf_counter() - start
        assert len(sweep.witnesses) == 28, "found %d residues" % len(sweep.witnesses)
        assert sorted(sweep.witnesses) == list(range(28))
        for exps in sweep.witnesses.values():
            assert betti(bp_link(exps)).middle_betti == 0
        assert elapsed < 600.0

    _report(5, "28 exotic 7-sphere residues under 10 min", body)


def test_criterion_6_constants_algebra():
    def body():
        rng = random.Random(2026)
        for _ in range(1000):
            n = rng.randint(1, 6)
            lam = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            a = Fraction(rng.randint(1, 48), rng.randint(1, 12))
            b = Fraction(rng.randint(1, 48), rng.randint(1, 12))
            c = EtaConstants.of(n, lam)
            left = transverse_homothety(transverse_homothety(c, a), b)
            right = transverse_homothety(c, a * b)
            assert left == right
            assert left.lam + left.nu == 2 * n
            if lam > -2:
                moved = transverse_homothety(c, einstein_scale(c))
                assert (moved.lam, moved.nu) == (2 * n, 0)
        assert ew_mu_squared(EtaConstants(1, 6, -4)) == 4

    _report(6, "homothety group law, Einstein round trip, ew_mu", body)


def test_criterion_7_curvature_oracle():
    def body():
        for n in range(1, 5):
            start = time.perf_counter()
            fit = eta_fit(heisenberg_algebra(n))
            assert (fit.lam, fit.nu) == (-2, 2 * n + 2)
            assert fit.residual == 0
            assert fit.k_contact_residual == 0
            assert time.perf_counter() - start < 1.0
        base = EtaConstants.of(1, 2)
        for a in (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)):
            start = time.perf_counter()
            fit = eta_fit(berger_sphere(a))
            expected = transverse_homothety(base, a)
            assert (fit.lam, fit.nu) == (expected.lam, expected.nu)
            assert fit.residual == 0
            assert fit.k_contact_residual == 0
            assert time.perf_counter() - start < 1.0

    _report(7, "Heisenberg and Berger curvature fits, K-contact", body)


def test_criterion_8_ew_function_identity():
    def body():
        for n in (1, 2, 3):
            assert ew_function_check(n, 100) < 1e-12

    _report(8, "Einstein-Weyl function residual below 1e-12", body)


def test_criterion_9_documented_discrepancy():
    def body():
        oracle = sum(
            1
            for m in range(5, 42)
            if sum(1 for q in (2, 3, 7) if gcd(m, q) == 1) >= 2
        )
        result = run_search("237m", {"m": (5, 41)}, min_coprime_fixed=2)
        assert result.matched == oracle
        assert oracle == 28
        assert any("27" in note for note in result.notes)

    _report(9, "(2,3,7,m) count matches oracle, 27-note attached", body)
