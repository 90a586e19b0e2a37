"""Algebra of eta-Einstein constants and transverse homotheties.

A (2n+1)-dimensional structure with Ric = lambda g + nu eta (x) eta has
constants tied by lambda + nu = 2n.  The transverse homothety with
scale a > 0 deforms the metric to g' = a g + a(a-1) eta (x) eta and acts
on the constants by

    lambda' = (lambda + 2 - 2a) / a,    nu' = 2n - lambda'.

All values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput
from .links import SignClass

Rational = Fraction | int


@dataclass(frozen=True)
class EtaConstants:
    """Pair (lambda, nu) with nu = 2n - lambda enforced exactly."""

    n: int
    lam: Fraction
    nu: Fraction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInput("n must be >= 1")
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "nu", Fraction(self.nu))
        if self.lam + self.nu != 2 * self.n:
            raise InvalidInput(
                "lambda + nu must equal 2n = %d" % (2 * self.n)
            )

    @classmethod
    def of(cls, n: int, lam: Rational) -> "EtaConstants":
        lam = Fraction(lam)
        return cls(n, lam, 2 * n - lam)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def sign(self) -> SignClass:
        if self.lam > -2:
            return SignClass.POSITIVE
        if self.lam == -2:
            return SignClass.NULL
        return SignClass.NEGATIVE


def null_constants(n: int) -> EtaConstants:
    """The null class pins the constants to (-2, 2n+2)."""
    return EtaConstants.of(n, -2)


def transverse_homothety(c: EtaConstants, a: Rational) -> EtaConstants:
    """Constants after the homothety with scale a > 0."""
    a = Fraction(a)
    if a <= 0:
        raise InvalidInput("scale must be positive, got %s" % a)
    return EtaConstants.of(c.n, (c.lam + 2 - 2 * a) / a)


def einstein_scale(c: EtaConstants) -> Fraction:
    """Scale taking a positive structure to the Einstein one,
    lambda' = 2n: a = (lambda + 2) / (2n + 2).  Needs lambda > -2."""
    if c.lam <= -2:
        raise InvalidInput("requires lambda > -2, got %s" % c.lam)
    return (c.lam + 2) / Fraction(2 * c.n + 2)


def lorentzian_scale(c: EtaConstants) -> Fraction:
    """Formal scale a = (lambda + 2) / (2 + 2n) attached to a negative
    structure.  For lambda < -2 this value is negative; it is returned
    as evaluated (callers flag it), since the Lorentzian deformation
    -g' = a g + a(a-1) eta (x) eta is not a homothety of the metric."""
    if c.lam >= -2:
        raise InvalidInput("requires lambda < -2, got %s" % c.lam)
    return (c.lam + 2) / Fraction(2 + 2 * c.n)


def squash_class(a: Rational) -> str:
    """"squashed" for 0 < a < 1, "einstein" at a = 1, "stretched" above."""
    a = Fraction(a)
    if a <= 0:
        raise InvalidInput("scale must be positive, got %s" % a)
    if a < 1:
        return "squashed"
    if a == 1:
        return "einstein"
    return "stretched"


def scalar_curvature(c: EtaConstants) -> Fraction:
    """s = 2n (lambda + 1)."""
    return 2 * c.n * (c.lam + 1)


def scalar_flat_scale(c: EtaConstants) -> Fraction:
    """Scale a = lambda + 2 reaching lambda' = -1, i.e. s' = 0.
    Needs lambda > -2 so the scale is positive."""
    if c.lam <= -2:
        raise InvalidInput("requires lambda > -2, got %s" % c.lam)
    return c.lam + 2


def ew_mu_squared(c: EtaConstants) -> Fraction:
    """Square of the Einstein-Weyl parameter, mu^2 = -nu / (2n - 1).
    Exists only for nu < 0; mu itself is irrational in general, so the
    square is the stored quantity."""
    if c.nu >= 0:
        raise InvalidInput("requires nu < 0, got %s" % c.nu)
    return -c.nu / Fraction(2 * c.n - 1)


def heisenberg_alpha_squared(n: int) -> Fraction:
    """alpha^2 = (2n + 2) / (2n - 1) for the profile f = alpha tan(z + c);
    the homothety scale 1/alpha then lands on the Einstein-Weyl pair."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    return Fraction(2 * n + 2, 2 * n - 1)


__all__ = [
    "EtaConstants",
    "null_constants",
    "transverse_homothety",
    "einstein_scale",
    "lorentzian_scale",
    "squash_class",
    "scalar_curvature",
    "scalar_flat_scale",
    "ew_mu_squared",
    "heisenberg_alpha_squared",
]
