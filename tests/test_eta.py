"""Eta-Einstein constants algebra and transverse homotheties."""

import random
from fractions import Fraction

import pytest

from linkatlas import EtaConstants, transverse_homothety
from linkatlas.eta import (
    einstein_scale,
    ew_mu_squared,
    heisenberg_alpha_squared,
    lorentzian_scale,
    null_constants,
    scalar_curvature,
    scalar_flat_scale,
    squash_class,
)
from linkatlas.errors import InvalidInput
from linkatlas.links import SignClass


def _rand_rational(rng, lo=-10, hi=10):
    return Fraction(rng.randint(lo * 6, hi * 6), rng.choice([1, 2, 3, 6]))


def test_constants_constructor():
    c = EtaConstants(1, 2, 0)
    assert c.lam == 2 and c.nu == 0 and c.dim == 3
    c = EtaConstants.of(2, Fraction(1, 3))
    assert c.nu == Fraction(11, 3)
    with pytest.raises(InvalidInput):
        EtaConstants(1, 2, 1)
    with pytest.raises(InvalidInput):
        EtaConstants(0, 2, -2)


def test_constants_sign():
    assert EtaConstants.of(1, 5).sign is SignClass.POSITIVE
    assert EtaConstants.of(3, -2).sign is SignClass.NULL
    assert EtaConstants.of(2, -7).sign is SignClass.NEGATIVE
    assert null_constants(4) == EtaConstants(4, -2, 10)


def test_homothety_examples():
    moved = transverse_homothety(EtaConstants.of(1, 2), Fraction(1, 2))
    assert (moved.lam, moved.nu) == (6, -4)
    # a = 1 is the identity
    c = EtaConstants.of(3, Fraction(7, 2))
    assert transverse_homothety(c, 1) == c
    # the null class is a fixed point for every scale
    for a in (Fraction(1, 3), 1, 2, 7):
        assert transverse_homothety(null_constants(2), a) == null_constants(2)


def test_homothety_rejects_nonpositive_scale():
    with pytest.raises(InvalidInput, match="scale must be positive"):
        transverse_homothety(EtaConstants.of(1, 2), 0)
    with pytest.raises(InvalidInput, match="scale must be positive"):
        transverse_homothety(EtaConstants.of(1, 2), Fraction(-1, 2))


def test_homothety_group_law():
    # T_b after T_a equals T_ab
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 5)
        c = EtaConstants.of(n, _rand_rational(rng))
        a = abs(_rand_rational(rng)) + Fraction(1, 7)
        b = abs(_rand_rational(rng)) + Fraction(1, 7)
        assert transverse_homothety(transverse_homothety(c, a), b) == \
            transverse_homothety(c, a * b)


def test_homothety_preserves_sign_and_inverts():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 4)
        c = EtaConstants.of(n, _rand_rational(rng))
        a = abs(_rand_rational(rng)) + Fraction(1, 5)
        moved = transverse_homothety(c, a)
        assert moved.sign is c.sign
        assert transverse_homothety(moved, 1 / a) == c


def test_einstein_scale():
    assert einstein_scale(EtaConstants.of(1, 6)) == 2
    assert einstein_scale(EtaConstants.of(2, 4)) == 1
    with pytest.raises(InvalidInput, match="requires lambda > -2"):
        einstein_scale(null_constants(1))
    with pytest.raises(InvalidInput, match="requires lambda > -2"):
        einstein_scale(EtaConstants.of(2, -5))


def test_einstein_round_trip():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 5)
        lam = abs(_rand_rational(rng)) - 2 + Fraction(1, 11)  # keep lam > -2
        c = EtaConstants.of(n, lam)
        moved = transverse_homothety(c, einstein_scale(c))
        assert (moved.lam, moved.nu) == (2 * n, 0)


def test_lorentzian_scale():
    assert lorentzian_scale(EtaConstants.of(2, -8)) == -1
    assert lorentzian_scale(EtaConstants.of(3, -10)) == -1
    with pytest.raises(InvalidInput, match="requires lambda < -2"):
        lorentzian_scale(null_constants(2))
    with pytest.raises(InvalidInput, match="requires lambda < -2"):
        lorentzian_scale(EtaConstants.of(1, 0))


def test_lorentzian_scale_parameterization():
    # lambda = -2 - (2n+2) t maps to a = -t
    rng = random.Random(59)
    for _ in range(100):
        n = rng.randint(1, 5)
        t = abs(_rand_rational(rng)) + Fraction(1, 9)
        c = EtaConstants.of(n, -2 - (2 * n + 2) * t)
        assert lorentzian_scale(c) == -t


def test_squash_class():
    assert squash_class(Fraction(1, 2)) == "squashed"
    assert squash_class(1) == "einstein"
    assert squash_class(3) == "stretched"
    with pytest.raises(InvalidInput, match="scale must be positive"):
        squash_class(0)


def test_squash_direction_of_constants():
    # squashing the Einstein structure raises lambda above 2n
    c = EtaConstants.of(2, 4)
    squashed = transverse_homothety(c, Fraction(1, 2))
    assert squashed.lam > 4 and squashed.nu < 0
    stretched = transverse_homothety(c, 2)
    assert stretched.lam < 4 and stretched.nu > 0


def test_scalar_curvature():
    assert scalar_curvature(EtaConstants.of(1, -2)) == -2
    assert scalar_curvature(EtaConstants.of(2, 4)) == 20
    assert scalar_curvature(EtaConstants.of(3, -1)) == 0


def test_scalar_flat_scale():
    assert scalar_flat_scale(EtaConstants.of(1, 2)) == 4
    assert scalar_flat_scale(EtaConstants.of(2, 4)) == 6
    assert scalar_flat_scale(EtaConstants.of(2, -1)) == 1
    with pytest.raises(InvalidInput, match="requires lambda > -2"):
        scalar_flat_scale(EtaConstants.of(1, -3))
    # the scale indeed lands on scalar curvature zero
    rng = random.Random(61)
    for _ in range(50):
        n = rng.randint(1, 4)
        c = EtaConstants.of(n, abs(_rand_rational(rng)) - 2 + Fraction(1, 13))
        moved = transverse_homothety(c, scalar_flat_scale(c))
        assert scalar_curvature(moved) == 0


def test_ew_mu_squared():
    assert ew_mu_squared(EtaConstants(1, 6, -4)) == 4
    assert ew_mu_squared(EtaConstants(2, 5, -1)) == Fraction(1, 3)
    with pytest.raises(InvalidInput, match="requires nu < 0"):
        ew_mu_squared(null_constants(1))
    with pytest.raises(InvalidInput, match="requires nu < 0"):
        ew_mu_squared(EtaConstants.of(2, 4))


def test_heisenberg_alpha_squared():
    assert heisenberg_alpha_squared(1) == 4
    assert heisenberg_alpha_squared(2) == 2
    assert heisenberg_alpha_squared(3) == Fraction(8, 5)
    with pytest.raises(InvalidInput):
        heisenberg_alpha_squared(0)


def test_alpha_matches_half_squashed_einstein():
    # squashing the Einstein structure by a = 1/2 gives nu = -(2n+2),
    # whose mu^2 is exactly the Heisenberg alpha^2
    for n in range(1, 6):
        half = transverse_homothety(EtaConstants.of(n, 2 * n), Fraction(1, 2))
        assert ew_mu_squared(half) == heisenberg_alpha_squared(n)


def test_tanno_identity_coefficients():
    # Ric' = lam' g' + nu' eta' x eta' expanded in the (g, eta x eta)
    # basis must match Ric - 2(a-1) g + (a-1)(2n+2+2na) eta x eta
    rng = random.Random(67)
    for _ in range(200):
        n = rng.randint(1, 5)
        lam = _rand_rational(rng)
        a = abs(_rand_rational(rng)) + Fraction(1, 7)
        c = EtaConstants.of(n, lam)
        moved = transverse_homothety(c, a)
        # left side: g' = a g + a(a-1) eta x eta, eta' = a eta
        lhs_g = moved.lam * a
        lhs_q = moved.lam * a * (a - 1) + moved.nu * a * a
        # right side coefficients
        rhs_g = c.lam - 2 * (a - 1)
        rhs_q = c.nu + (a - 1) * (2 * n + 2 + 2 * n * a)
        assert lhs_g == rhs_g
        assert lhs_q == rhs_q
